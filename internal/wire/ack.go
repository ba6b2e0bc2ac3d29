package wire

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// DC→TC ack coalescing. Every reply the server runtime produces funnels
// through a per-connection ackBatcher instead of going straight to the
// transport.
// The batcher works like group commit works in wal.Log.ForceTo: the first
// reply to arrive flushes immediately (idle connections never pay added
// latency), and replies that arrive while that flush is on the wire pile
// up and leave together in a single msgReplyBatch frame. Replies pile up
// only where one connection carries many calls: the simulated fabric's
// endpoint, where one fabric delivery then acknowledges many transactions.
// A TCP connection carries one call at a time, so there every flush is one
// plain msgReply. No timers are involved, so coalescing never trades
// latency for throughput.

// ackBatcher coalesces a connection's replies into batched ack frames.
type ackBatcher struct {
	mu       sync.Mutex
	queue    []*message
	flushing bool

	// out ships one frame toward the client: a plain msgReply when a flush
	// holds a single reply (byte-identical to an uncoalesced protocol), a
	// msgReplyBatch otherwise. Called without mu held; calls are serialized
	// by the flushing flag.
	out func(*message)

	batches, coalesced *atomic.Uint64 // owned by the serveCore
}

// add enqueues one reply. The caller that finds the batcher idle becomes
// the flusher and drains the queue — including replies added by others
// while it was writing — before returning.
func (a *ackBatcher) add(m *message) {
	a.mu.Lock()
	a.queue = append(a.queue, m)
	if a.flushing {
		a.mu.Unlock()
		return
	}
	a.flushing = true
	for len(a.queue) > 0 {
		batch := a.queue
		a.queue = nil
		a.mu.Unlock()
		a.batches.Add(1)
		m := batch[0]
		if n := len(batch); n > 1 {
			a.coalesced.Add(uint64(n - 1))
			m = &message{kind: msgReplyBatch, body: encodeAckBatch(getReplyBuf(), batch)}
		}
		a.out(m)
		a.mu.Lock()
	}
	a.flushing = false
	a.mu.Unlock()
}

// encodeAckBatch packs replies into one msgReplyBatch body: uvarint count,
// then per reply its correlation id, error text, and result body (both
// length-prefixed). The member bodies are released to the reply pool —
// encoding consumed them.
func encodeAckBatch(buf []byte, batch []*message) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for _, m := range batch {
		buf = binary.AppendUvarint(buf, m.id)
		buf = binary.AppendUvarint(buf, uint64(len(m.err)))
		buf = append(buf, m.err...)
		buf = binary.AppendUvarint(buf, uint64(len(m.body)))
		buf = append(buf, m.body...)
		putReplyBuf(m.body)
	}
	return buf
}

// decodeAckBatch unpacks a msgReplyBatch body into the individual replies.
// Each member body is copied into its own pooled buffer, because each
// waiter consumes (and recycles) its reply independently.
func decodeAckBatch(body []byte) ([]*message, error) {
	n, body, err := readUvarint(body)
	// Each member costs at least 3 bytes, so a count beyond len(body) is
	// corrupt; refusing it here bounds the slice allocation below.
	if err != nil || n > uint64(len(body)) {
		return nil, errBadFrame
	}
	batch := make([]*message, 0, n)
	for i := uint64(0); i < n; i++ {
		m := &message{kind: msgReply}
		if m.id, body, err = readUvarint(body); err != nil {
			return nil, err
		}
		var errText []byte
		if errText, body, err = readLenBytes(body); err != nil {
			return nil, err
		}
		m.err = string(errText)
		var raw []byte
		if raw, body, err = readLenBytes(body); err != nil {
			return nil, err
		}
		if len(raw) > 0 {
			m.body = append(getReplyBuf(), raw...)
		}
		batch = append(batch, m)
	}
	if len(body) != 0 {
		return nil, errBadFrame
	}
	return batch, nil
}
