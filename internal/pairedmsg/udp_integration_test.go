package pairedmsg

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"circus/internal/udptrans"
)

// forEachUDPPair runs f, in a subtest named after udptrans.Listen,
// over two Conns wired across real loopback sockets from the Listen
// that circus.ListenUDP — the two binaries and the benchmark's echo_udp
// — binds. This exercises the endpoint's handler delivery (recvmmsg
// into pooled buffers, no recv channel) and the sendmmsg batch sender
// end to end.
func forEachUDPPair(t *testing.T, opts Options, f func(t *testing.T, a, b *Conn)) {
	t.Run("Listen", func(t *testing.T) {
		epA, err := udptrans.Listen(0)
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		epB, err := udptrans.Listen(0)
		if err != nil {
			epA.Close()
			t.Fatalf("Listen: %v", err)
		}
		a, b := New(epA, opts), New(epB, opts)
		defer func() { a.Close(); b.Close() }()
		f(t, a, b)
	})
}

func TestUDPShardedExchange(t *testing.T) {
	forEachUDPPair(t, fastOpts(), func(t *testing.T, a, b *Conn) {
		cn := a.NextCallNum(b.Addr())
		if err := a.Send(context.Background(), b.Addr(), Call, cn, []byte("over real sockets")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		m, ok := recvMsg(t, b, 2*time.Second)
		if !ok {
			t.Fatal("call not delivered over UDP")
		}
		if string(m.Data) != "over real sockets" {
			t.Fatalf("data = %q", m.Data)
		}
		m.Release()
		if err := b.Send(context.Background(), a.Addr(), Return, m.CallNum, []byte("ack")); err != nil {
			t.Fatalf("Return: %v", err)
		}
		r, ok := recvMsg(t, a, 2*time.Second)
		if !ok {
			t.Fatal("return not delivered over UDP")
		}
		if string(r.Data) != "ack" {
			t.Fatalf("return data = %q", r.Data)
		}
		r.Release()
	})
}

func TestUDPShardedMultiSegment(t *testing.T) {
	forEachUDPPair(t, fastOpts(), func(t *testing.T, a, b *Conn) {
		// Larger than one segment: exercises reassembly from pooled
		// buffers delivered by different recvmmsg bursts.
		big := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
		cn := a.NextCallNum(b.Addr())
		if err := a.Send(context.Background(), b.Addr(), Call, cn, big); err != nil {
			t.Fatalf("Send: %v", err)
		}
		m, ok := recvMsg(t, b, 2*time.Second)
		if !ok {
			t.Fatal("multi-segment message not delivered over UDP")
		}
		if !bytes.Equal(m.Data, big) {
			t.Fatalf("reassembled %d bytes, want %d (corrupt=%v)",
				len(m.Data), len(big), !bytes.Equal(m.Data, big))
		}
		m.Release()
	})
}

func TestUDPShardedManyExchanges(t *testing.T) {
	forEachUDPPair(t, fastOpts(), func(t *testing.T, a, b *Conn) {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < 50; i++ {
				m, ok := recvMsg(t, b, 2*time.Second)
				if !ok {
					done <- fmt.Errorf("message %d not delivered", i)
					return
				}
				err := b.Send(context.Background(), a.Addr(), Return, m.CallNum, m.Data)
				m.Release()
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < 50; i++ {
			payload := []byte(fmt.Sprintf("call-%02d", i))
			cn := a.NextCallNum(b.Addr())
			if err := a.Send(context.Background(), b.Addr(), Call, cn, payload); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
			r, ok := recvMsg(t, a, 2*time.Second)
			if !ok {
				t.Fatalf("return %d not delivered", i)
			}
			if !bytes.Equal(r.Data, payload) {
				t.Fatalf("return %d = %q, want %q", i, r.Data, payload)
			}
			r.Release()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}
