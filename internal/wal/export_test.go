package wal

import "github.com/cidr09/unbundled/internal/base"

// StartLSN returns the LSN of the first retained record, or 0 if empty.
func (l *Log) StartLSN() base.LSN {
	start, _, _ := l.media.Bounds()
	return base.LSN(start)
}

// NextLSN returns the LSN the next record appended will take.
func (l *Log) NextLSN() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}
