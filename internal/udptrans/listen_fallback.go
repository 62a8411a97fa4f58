//go:build !linux

package udptrans

import "net"

// reusePortAvailable: without Linux's SO_REUSEPORT load-balancing
// semantics the endpoint collapses to one socket (BSD's SO_REUSEPORT
// exists but balances differently; Windows has none).
const reusePortAvailable = false

func listenUDP(port uint16, _ bool) (*net.UDPConn, error) {
	return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(port)})
}
