//go:build linux

package udptrans

import (
	"context"
	"net"
	"strconv"
	"syscall"
)

// reusePortAvailable: Linux hashes incoming datagrams across all
// sockets sharing a port when each sets SO_REUSEPORT before bind, the
// substrate of a multi-socket endpoint.
const reusePortAvailable = true

// soREUSEPORT is SO_REUSEPORT; the syscall package predates the
// option on some arches, so it is spelled out (asm-generic value,
// shared by amd64 and arm64).
const soREUSEPORT = 0xf

// listenUDP binds one loopback UDP socket, setting SO_REUSEPORT when
// the endpoint spans several sockets.
func listenUDP(port uint16, reuse bool) (*net.UDPConn, error) {
	lc := net.ListenConfig{}
	if reuse {
		lc.Control = func(network, address string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soREUSEPORT, 1)
			})
			if err != nil {
				return err
			}
			return serr
		}
	}
	pc, err := lc.ListenPacket(context.Background(), "udp4",
		net.JoinHostPort("127.0.0.1", strconv.Itoa(int(port))))
	if err != nil {
		return nil, err
	}
	return pc.(*net.UDPConn), nil
}
