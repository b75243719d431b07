package dfs

import (
	"blobseer/internal/wire"
)

// Wire messages shared by the namespace services of both backends
// (BSFS namespace manager and HDFS namenode). A request that names a
// path cleans it as it decodes, so no handler sees an unclean path.

// PathReq names one path.
type PathReq struct{ Path string }

// AppendTo implements wire.Marshaler.
func (m *PathReq) AppendTo(b []byte) []byte { return wire.AppendString(b, m.Path) }

// DecodeFrom implements wire.Unmarshaler.
func (m *PathReq) DecodeFrom(r *wire.Reader) error {
	m.Path = r.String()
	if err := r.Err(); err != nil {
		return err
	}
	var err error
	m.Path, err = CleanPath(m.Path)
	return err
}

// PathPairReq names a source and destination.
type PathPairReq struct{ Src, Dst string }

// AppendTo implements wire.Marshaler.
func (m *PathPairReq) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, m.Src)
	return wire.AppendString(b, m.Dst)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *PathPairReq) DecodeFrom(r *wire.Reader) error {
	m.Src = r.String()
	m.Dst = r.String()
	if err := r.Err(); err != nil {
		return err
	}
	var err error
	if m.Src, err = CleanPath(m.Src); err == nil {
		m.Dst, err = CleanPath(m.Dst)
	}
	return err
}

// ListResp carries directory entries.
type ListResp struct{ Infos []FileInfo }

// AppendTo implements wire.Marshaler.
func (m *ListResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Infos)))
	for _, fi := range m.Infos {
		b = wire.AppendString(b, fi.Path)
		b = wire.AppendBool(b, fi.IsDir)
		b = wire.AppendUvarint(b, fi.Size)
		b = wire.AppendUvarint(b, fi.Blocks)
	}
	return b
}

// DecodeFrom implements wire.Unmarshaler.
func (m *ListResp) DecodeFrom(r *wire.Reader) error {
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.Infos = make([]FileInfo, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var fi FileInfo
		fi.Path = r.String()
		fi.IsDir = r.Bool()
		fi.Size = r.Uvarint()
		fi.Blocks = r.Uvarint()
		m.Infos = append(m.Infos, fi)
	}
	return r.Err()
}

// CountResp carries a single counter.
type CountResp struct{ Count uint64 }

// AppendTo implements wire.Marshaler.
func (m *CountResp) AppendTo(b []byte) []byte { return wire.AppendUvarint(b, m.Count) }

// DecodeFrom implements wire.Unmarshaler.
func (m *CountResp) DecodeFrom(r *wire.Reader) error {
	m.Count = r.Uvarint()
	return r.Err()
}
