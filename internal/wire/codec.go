package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/cidr09/unbundled/internal/base"
)

// The wire frame codec. One frame carries one message: the kind byte, the
// correlation id, the sender's TC identity and incarnation epoch, the
// LSN argument of control messages, the opaque body (an encoded
// operation, batch, or result — see the base package codecs), the
// control-reply error text (rehydrated into the typed taxonomy by
// base.RehydrateWireError on the client side), and — optionally — a
// watermark block: the sender's end of stable log, low-water mark and safe
// timestamp, stamped with the frame's own tc and epoch. Any request frame
// may carry one (that is how EOSL and LWM travel); a msgWatermarks frame is
// nothing but one.
//
// The codec is shared by every transport: the simulated fabric uses it for
// its byte accounting, the TCP transport for the real stream framing, and
// the fuzz tests to pin the format. Frames are self-delimiting
// (length-prefixed fields), so a decoded frame also reports how many bytes
// it consumed.
//
// Frame layout (all integers are stdlib varints):
//
//	kind     byte        message kind (msgPerform..msgWatermarks), with
//	                     frameWMFlag set when a watermark block follows
//	id       uvarint     correlation id (replies echo the request's)
//	tc       uvarint     sender TC identity
//	epoch    uvarint     sender incarnation epoch
//	lsn      uvarint     LSN argument (control calls)
//	bodyLen  uvarint     followed by bodyLen opaque body bytes
//	errLen   uvarint     followed by errLen error-text bytes
//	has      byte        only under frameWMFlag: which marks follow
//	eosl     uvarint     if has&wmEOSL
//	lwm      uvarint     if has&wmLWM
//	safe     uvarint     if has&wmSafe
//	horizon  uvarint     if has&wmSafe
//
// A frame without a block is byte-identical to what it was before blocks
// existed.
//
// On a TCP stream each frame is additionally preceded by a 4-byte
// big-endian length so a reader can frame without parsing.

// maxFrameBytes bounds a single decoded frame (stream framing refuses
// anything larger before allocating). Batches are capped well below this
// by the TC (its maxBatch constant, 64 operations); the limit exists so a corrupt or hostile length
// prefix cannot drive allocation.
const maxFrameBytes = 1 << 26 // 64 MiB

var errBadFrame = fmt.Errorf("wire: corrupt frame")

// frameWMFlag marks, on the kind byte, that a watermark block ends the
// frame. Kinds are tiny, so the high bit is free.
const frameWMFlag = 0x80

// The marks a watermark block can hold (watermarks.has).
const (
	wmEOSL uint8 = 1 << iota
	wmLWM
	wmSafe // safe timestamp and GC horizon, always together
	wmAll  = wmEOSL | wmLWM | wmSafe
)

// watermarks is a frame's optional watermark block; has == 0 means none.
// The marks are those of the frame's tc and epoch.
type watermarks struct {
	has           uint8
	eosl, lwm     base.LSN
	safe, horizon base.TS
}

// appendFrame serializes m to buf.
func appendFrame(buf []byte, m *message) []byte {
	kind := byte(m.kind)
	if m.wm.has != 0 {
		kind |= frameWMFlag
	}
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, m.id)
	buf = binary.AppendUvarint(buf, uint64(m.tc))
	buf = binary.AppendUvarint(buf, uint64(m.epoch))
	buf = binary.AppendUvarint(buf, uint64(m.lsn))
	buf = binary.AppendUvarint(buf, uint64(len(m.body)))
	buf = append(buf, m.body...)
	buf = binary.AppendUvarint(buf, uint64(len(m.err)))
	buf = append(buf, m.err...)
	if w := &m.wm; w.has != 0 {
		buf = append(buf, w.has)
		if w.has&wmEOSL != 0 {
			buf = binary.AppendUvarint(buf, uint64(w.eosl))
		}
		if w.has&wmLWM != 0 {
			buf = binary.AppendUvarint(buf, uint64(w.lwm))
		}
		if w.has&wmSafe != 0 {
			buf = binary.AppendUvarint(buf, uint64(w.safe))
			buf = binary.AppendUvarint(buf, uint64(w.horizon))
		}
	}
	return buf
}

// decodeFrame parses one frame from buf and returns the remaining bytes.
// The message's body aliases buf: the one caller outside the tests,
// readStreamFrame, reads every frame into a buffer of its own and never
// recycles it, so a second copy would buy nothing.
func decodeFrame(buf []byte) (*message, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, errBadFrame
	}
	m := &message{kind: msgKind(buf[0] &^ frameWMFlag)}
	hasBlock := buf[0]&frameWMFlag != 0
	if m.kind < msgPerform || m.kind > msgWatermarks {
		return nil, nil, fmt.Errorf("%w: kind %d", errBadFrame, buf[0])
	}
	buf = buf[1:]
	var err error
	var u uint64
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	m.id = u
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	m.tc = base.TCID(u)
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	m.epoch = base.Epoch(u)
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	m.lsn = base.LSN(u)
	if m.body, buf, err = readLenBytes(buf); err != nil {
		return nil, nil, err
	}
	var errText []byte
	if errText, buf, err = readLenBytes(buf); err != nil {
		return nil, nil, err
	}
	m.err = string(errText)
	if hasBlock {
		if buf, err = decodeWatermarks(&m.wm, buf); err != nil {
			return nil, nil, err
		}
	}
	return m, buf, nil
}

func decodeWatermarks(w *watermarks, buf []byte) ([]byte, error) {
	if len(buf) < 1 || buf[0]&^wmAll != 0 {
		return nil, errBadFrame
	}
	w.has = buf[0]
	buf = buf[1:]
	var err error
	var u uint64
	if w.has&wmEOSL != 0 {
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		w.eosl = base.LSN(u)
	}
	if w.has&wmLWM != 0 {
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		w.lwm = base.LSN(u)
	}
	if w.has&wmSafe != 0 {
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		w.safe = base.TS(u)
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		w.horizon = base.TS(u)
	}
	return buf, nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, errBadFrame
	}
	return u, buf[n:], nil
}

// readLenBytes reads one length-prefixed field. The field aliases buf (its
// capacity clipped, so appending to it cannot reach the bytes behind); a
// caller that outlives buf copies — the catalog and error texts into
// strings, decodeAckBatch into a pooled buffer per member.
func readLenBytes(buf []byte) ([]byte, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil || n > uint64(len(buf)) {
		return nil, nil, errBadFrame
	}
	if n == 0 {
		return nil, buf, nil
	}
	return buf[:n:n], buf[n:], nil
}

// writeFrame writes m to w as one length-prefixed stream frame. scratch, if
// non-nil, is reused for encoding; the (possibly grown) buffer is returned
// so callers can pool it.
func writeFrame(w io.Writer, scratch []byte, m *message) ([]byte, error) {
	buf := append(scratch[:0], 0, 0, 0, 0)
	buf = appendFrame(buf, m)
	n := len(buf) - 4
	if n > maxFrameBytes {
		return buf, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	_, err := w.Write(buf)
	return buf, err
}

// readStreamFrame reads one length-prefixed frame from r.
func readStreamFrame(r *bufio.Reader) (*message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("%w: stream frame length %d out of range", errBadFrame, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	m, rest, err := decodeFrame(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadFrame, len(rest))
	}
	return m, nil
}
