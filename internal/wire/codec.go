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
// LSN argument of control messages, the opaque body (an encoded batch of
// operations or of results — see the base package codecs — or a catalog),
// the control-reply error text (rehydrated into the typed taxonomy by
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
//	kind     byte        message kind (never a retired one), with
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
	buf = base.AppendField(buf, m.body)
	buf = base.AppendField(buf, m.err)
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

// decodeFrame parses one frame from buf into m, replacing all it held, and
// returns the remaining bytes. The message's body aliases buf (its capacity
// clipped); its error text is copied.
func decodeFrame(m *message, buf []byte) ([]byte, error) {
	d := base.NewDecoder(buf)
	kind := d.Byte()
	*m = message{kind: msgKind(kind &^ frameWMFlag)}
	switch m.kind {
	case msgPerformBatch, msgCheckpoint, msgBeginRestart, msgEndRestart, msgReply, msgCatalog, msgWatermarks:
	default: // zero, a retired kind or one past the last
		return nil, fmt.Errorf("%w: kind %d", errBadFrame, kind)
	}
	m.id, m.tc, m.epoch, m.lsn = d.Uvarint(), base.TCID(d.Uvarint()), base.Epoch(d.Uvarint()), base.LSN(d.Uvarint())
	m.body, m.err = d.Field(), string(d.Field())
	if kind&frameWMFlag != 0 {
		decodeWatermarks(&m.wm, &d)
	}
	if d.Err() != nil {
		return nil, errBadFrame
	}
	return d.Rest(), nil
}

func decodeWatermarks(w *watermarks, d *base.Decoder) {
	if w.has = d.Byte(); w.has&^wmAll != 0 {
		d.Fail(errBadFrame)
	}
	if w.has&wmEOSL != 0 {
		w.eosl = base.LSN(d.Uvarint())
	}
	if w.has&wmLWM != 0 {
		w.lwm = base.LSN(d.Uvarint())
	}
	if w.has&wmSafe != 0 {
		w.safe, w.horizon = base.TS(d.Uvarint()), base.TS(d.Uvarint())
	}
}

// writeFrame writes m to w as one length-prefixed stream frame. scratch, if
// non-nil, is reused for encoding; the (possibly grown) buffer is returned
// so the caller can encode its next frame into it.
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

// readFrame reads one length-prefixed frame from r into buf, reusing its
// capacity (a nil buf: a buffer of the frame's size, which the caller then
// owns), and decodes it into m. It returns the buffer, whose bytes m's body
// aliases.
func readFrame(r *bufio.Reader, buf []byte, m *message) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	r.Discard(4)
	if n == 0 || n > maxFrameBytes {
		return buf, fmt.Errorf("%w: stream frame length %d out of range", errBadFrame, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	rest, err := decodeFrame(m, buf)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes", errBadFrame, len(rest))
	}
	return buf, err
}
