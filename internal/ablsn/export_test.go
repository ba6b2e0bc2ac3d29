package ablsn

import "github.com/cidr09/unbundled/internal/base"

// DecodeTable is DecodeTableInto into a new table.
func DecodeTable(buf []byte) (*Table, []byte, error) {
	t := &Table{}
	rest, err := DecodeTableInto(t, buf)
	if err != nil {
		return nil, nil, err
	}
	return t, rest, nil
}

// Decode parses an abstract LSN previously produced by Append and returns
// the remaining bytes.
func Decode(buf []byte) (*A, []byte, error) {
	var a A
	d := base.NewDecoder(buf)
	if a.decode(&d); d.Err() != nil {
		return nil, nil, errCorrupt
	}
	return &a, d.Rest(), nil
}
