package ablsn

// DecodeTable is DecodeTableInto into a new table.
func DecodeTable(buf []byte) (*Table, []byte, error) {
	t := &Table{}
	rest, err := DecodeTableInto(t, buf)
	if err != nil {
		return nil, nil, err
	}
	return t, rest, nil
}
