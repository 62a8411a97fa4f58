package pairedmsg

import (
	"testing"
)

// FuzzDecodeSegment: the segment decoder must never panic and must
// reject anything shorter than the Figure 4.2 header.
func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 0, 0, 0, 1})
	f.Add([]byte{1, 3, 255, 255, 0xde, 0xad, 0xbe, 0xef, 'd', 'a', 't', 'a'})
	segs, _ := segmentMessage(Call, 7, []byte("hello fuzz"))
	f.Add(segs[0])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := decodeSegment(data)
		if err != nil {
			if len(data) >= headerLen {
				t.Fatalf("decode rejected a full header: %v", err)
			}
			return
		}
		if len(payload) != len(data)-headerLen {
			t.Fatalf("payload length %d from %d-byte segment", len(payload), len(data))
		}
		// Round-trip: re-encoding the header with the payload must
		// reproduce the input.
		out := h.encode(payload)
		if len(out) != len(data) {
			t.Fatalf("round trip changed length %d -> %d", len(data), len(out))
		}
		for i := 2; i < len(out); i++ { // bytes 0-1 may normalize flag bits
			if out[i] != data[i] {
				t.Fatalf("round trip changed byte %d", i)
			}
		}
	})
}

// FuzzSegmentReassembly feeds arbitrary datagrams straight into a
// conn's handlers; nothing may panic or wedge.
func FuzzSegmentReassembly(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 0, 0, 0, 1, 'x'})
	f.Add([]byte{0, 2, 2, 2, 0, 0, 0, 1})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := decodeSegment(data)
		if err != nil {
			return
		}
		// Drive the pure reassembly bookkeeping the way handlePacket does.
		in := &inTransfer{total: int(h.totalSegs), segs: make([][]byte, int(h.totalSegs)+1)}
		if int(h.segNum) >= 1 && int(h.segNum) <= in.total {
			seg := make([]byte, len(payload))
			copy(seg, payload)
			in.segs[h.segNum] = seg
			in.have++
			for in.ackNum < in.total && in.segs[in.ackNum+1] != nil {
				in.ackNum++
			}
		}
	})
}

// FuzzBundleDecode: the bundle decoder must never panic, never yield a
// frame that lies outside the input or is shorter than a segment
// header, and must decode a well-formed bundle back to its frames.
func FuzzBundleDecode(f *testing.F) {
	// A valid two-frame bundle.
	segs, _ := segmentMessage(Call, 7, []byte("hello"))
	valid := []byte{bundleMagic, 0}
	valid = appendBundleFrame(valid, segs[0])
	ackSeg := make([]byte, headerLen)
	ackSeg[0] = byte(Return)
	ackSeg[1] = ctlAck
	valid = appendBundleFrame(valid, ackSeg)
	f.Add(valid)
	f.Add([]byte{})                                             // empty
	f.Add([]byte{bundleMagic})                                  // magic alone
	f.Add([]byte{bundleMagic, 1})                               // count but no frames
	f.Add([]byte{bundleMagic, 1, 0xff, 0xff})                   // oversized frame length
	f.Add([]byte{bundleMagic, 2, 0, 8, 0, 0, 2, 1, 0, 0, 0, 1}) // count overruns frames
	f.Add([]byte{bundleMagic, 1, 0, 2, 1, 1})                   // frame below headerLen
	f.Add(append([]byte{bundleMagic, 255}, valid[2:]...))       // inflated count
	f.Add([]byte{0, 0, 2, 1, 0, 0, 0, 1, 'x'})                  // plain segment, not a bundle
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		decodeBundle(data, func(frame []byte) {
			if len(frame) < headerLen {
				t.Fatalf("yielded %d-byte frame, below header length", len(frame))
			}
			frames = append(frames, frame)
		})
		if len(data) < bundleHdrLen || data[0] != bundleMagic {
			if len(frames) != 0 {
				t.Fatalf("non-bundle input yielded %d frames", len(frames))
			}
			return
		}
		if len(frames) > int(data[1]) {
			t.Fatalf("yielded %d frames from a count of %d", len(frames), data[1])
		}
		total := bundleHdrLen
		for _, fr := range frames {
			total += bundleFrameHdrLen + len(fr)
		}
		if total > len(data) {
			t.Fatalf("yielded frames span %d bytes of a %d-byte bundle", total, len(data))
		}
		// Every yielded frame must survive the segment decoder without
		// panicking, the way handlePacket consumes them.
		for _, fr := range frames {
			decodeSegment(fr)
		}
	})
}

// TestBundleRoundTrip pins the framing format: frames packed by
// appendBundleFrame come back byte-identical and in order.
func TestBundleRoundTrip(t *testing.T) {
	segsA, _ := segmentMessage(Call, 1, []byte("first"))
	segsB, _ := segmentMessage(Return, 2, []byte("second message"))
	in := [][]byte{segsA[0], segsB[0]}
	buf := []byte{bundleMagic, 0}
	for _, s := range in {
		buf = appendBundleFrame(buf, s)
	}
	if buf[1] != 2 {
		t.Fatalf("frame count byte = %d, want 2", buf[1])
	}
	var out [][]byte
	decodeBundle(buf, func(frame []byte) {
		out = append(out, append([]byte(nil), frame...))
	})
	if len(out) != len(in) {
		t.Fatalf("decoded %d frames, want %d", len(out), len(in))
	}
	for i := range in {
		if string(out[i]) != string(in[i]) {
			t.Errorf("frame %d changed: %x -> %x", i, in[i], out[i])
		}
	}
}
