package tc

import (
	"encoding/binary"
	"errors"

	"github.com/cidr09/unbundled/internal/base"
)

// An op record's payload is base's op payload (base.AppendOpPayload): the
// logical operation and nothing restart does not read. It carries no undo
// information (§4.1.1(3)): an op record is appended in one batch with its
// transaction's commit record (Txn.appendQueued), so it is stable only beside
// it, never a loser's, and nothing inverts it.

// Commit-record payload: the commit timestamp (zero for an unversioned
// transaction), so analysis can re-seed the timestamp allocator above every
// durable commit, and redo can stamp the transaction's versioned writes, whose
// records precede it in the same batch and carry no timestamp of their own.
// Nothing else: the record's transaction id is the log's (wal.Record.Txn).
func appendCommit(buf []byte, ts base.TS) []byte {
	return binary.AppendUvarint(buf, uint64(ts))
}

func decodeCommit(payload []byte) (base.TS, error) {
	d := base.NewDecoder(payload)
	ts := base.TS(d.Uvarint())
	if !d.End() {
		return 0, errors.New("tc: corrupt commit payload")
	}
	return ts, nil
}

// Checkpoint-record payload: the redo scan start point plus the current
// incarnation epoch. Carrying the epoch here guarantees the stable log
// always holds the newest epoch even after truncation discards the
// recEpoch record (a checkpoint appends its record before truncating).
func encodeCheckpoint(rssp base.LSN, epoch base.Epoch) []byte {
	buf := binary.AppendUvarint(nil, uint64(rssp))
	return binary.AppendUvarint(buf, uint64(epoch))
}

func decodeCheckpoint(payload []byte) (base.LSN, base.Epoch, error) {
	d := base.NewDecoder(payload)
	rssp, epoch := base.LSN(d.Uvarint()), base.Epoch(d.Uvarint())
	if !d.End() {
		return 0, 0, errors.New("tc: corrupt checkpoint payload")
	}
	return rssp, epoch, nil
}

// Epoch-record payload: the minted incarnation epoch.
func encodeEpoch(epoch base.Epoch) []byte {
	return binary.AppendUvarint(nil, uint64(epoch))
}

func decodeEpoch(payload []byte) (base.Epoch, error) {
	d := base.NewDecoder(payload)
	epoch := base.Epoch(d.Uvarint())
	if !d.End() {
		return 0, errors.New("tc: corrupt epoch payload")
	}
	return epoch, nil
}
