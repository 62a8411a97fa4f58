//go:build linux && arm64

package udptrans

// sendmmsg/recvmmsg syscall numbers; the stdlib syscall tables predate
// them on some arches, so they are spelled out here.
const (
	sysSENDMMSG = 269
	sysRECVMMSG = 243
)
