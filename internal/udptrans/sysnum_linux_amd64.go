//go:build linux && amd64

package udptrans

// sendmmsg/recvmmsg syscall numbers; the stdlib syscall tables predate
// them on some arches, so they are spelled out here.
const (
	sysSENDMMSG = 307
	sysRECVMMSG = 299
)
