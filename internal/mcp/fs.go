package mcp

import (
	"fmt"
	"io"

	"repro/internal/wire"
)

// File operation codes for FileReq.Op.
const (
	FileOpen uint8 = iota
	FileRead
	FileWrite
	FileClose
	FileSeek
	FileStat
	FileUnlink
)

// Open flags (subset of POSIX semantics).
const (
	OCreate = 1 << 0
	OTrunc  = 1 << 1
	OAppend = 1 << 2
)

// FileReq is a forwarded file system call (paper §3.4: file I/O executes
// at the MCP so descriptors are consistent across processes).
type FileReq struct {
	Op     uint8
	FD     int32
	Path   string
	Flags  int32
	Data   []byte
	N      int32
	Off    int64
	Whence int32
}

// Walk codes r (see internal/wire).
func (r *FileReq) Walk(c *wire.Codec) {
	c.U8(&r.Op)
	c.I32(&r.FD)
	c.Str(&r.Path)
	c.I32(&r.Flags)
	c.Blob(&r.Data)
	c.I32(&r.N)
	c.Varint(&r.Off)
	c.I32(&r.Whence)
}

// FileRep is the result of a forwarded file system call.
type FileRep struct {
	Err  string
	FD   int32
	Data []byte
	N    int64
}

// Walk codes r (see internal/wire).
func (r *FileRep) Walk(c *wire.Codec) {
	c.Str(&r.Err)
	c.I32(&r.FD)
	c.Blob(&r.Data)
	c.Varint(&r.N)
}

// memFile is one file's contents.
type memFile struct {
	data []byte
}

// fdEntry is an open descriptor: file plus offset. Descriptors are
// simulation-global: any thread in any process may use an FD another
// thread opened — the consistency property the MCP exists to provide.
type fdEntry struct {
	file *memFile
	off  int64
}

// FS is the MCP's in-memory file system. Real Graphite forwards to the
// host OS; an in-memory store preserves the property under test (one
// consistent file table for the whole simulation) while keeping
// simulations hermetic.
type FS struct {
	files  map[string]*memFile
	fds    map[int32]*fdEntry
	nextFD int32
}

// NewFS returns an empty file system.
func NewFS() *FS {
	return &FS{
		files:  make(map[string]*memFile),
		fds:    make(map[int32]*fdEntry),
		nextFD: 3, // 0-2 reserved, as on a real system
	}
}

// Handle executes one file request.
func (fs *FS) Handle(req FileReq) FileRep {
	switch req.Op {
	case FileOpen:
		f, ok := fs.files[req.Path]
		if !ok {
			if req.Flags&OCreate == 0 {
				return FileRep{Err: fmt.Sprintf("open %s: no such file", req.Path)}
			}
			f = &memFile{}
			fs.files[req.Path] = f
		}
		if req.Flags&OTrunc != 0 {
			f.data = nil
		}
		fd := fs.nextFD
		fs.nextFD++
		e := &fdEntry{file: f}
		if req.Flags&OAppend != 0 {
			e.off = int64(len(f.data))
		}
		fs.fds[fd] = e
		return FileRep{FD: fd}
	case FileRead:
		e, ok := fs.fds[req.FD]
		if !ok {
			return FileRep{Err: fmt.Sprintf("read: bad fd %d", req.FD)}
		}
		if e.off >= int64(len(e.file.data)) {
			return FileRep{N: 0} // EOF
		}
		n := int64(req.N)
		if rem := int64(len(e.file.data)) - e.off; n > rem {
			n = rem
		}
		out := make([]byte, n)
		copy(out, e.file.data[e.off:])
		e.off += n
		return FileRep{Data: out, N: n}
	case FileWrite:
		e, ok := fs.fds[req.FD]
		if !ok {
			return FileRep{Err: fmt.Sprintf("write: bad fd %d", req.FD)}
		}
		end := e.off + int64(len(req.Data))
		if end > int64(len(e.file.data)) {
			grown := make([]byte, end)
			copy(grown, e.file.data)
			e.file.data = grown
		}
		copy(e.file.data[e.off:], req.Data)
		e.off = end
		return FileRep{N: int64(len(req.Data))}
	case FileClose:
		if _, ok := fs.fds[req.FD]; !ok {
			return FileRep{Err: fmt.Sprintf("close: bad fd %d", req.FD)}
		}
		delete(fs.fds, req.FD)
		return FileRep{}
	case FileSeek:
		e, ok := fs.fds[req.FD]
		if !ok {
			return FileRep{Err: fmt.Sprintf("seek: bad fd %d", req.FD)}
		}
		var base int64
		switch req.Whence {
		case io.SeekStart:
			base = 0
		case io.SeekCurrent:
			base = e.off
		case io.SeekEnd:
			base = int64(len(e.file.data))
		default:
			return FileRep{Err: "seek: bad whence"}
		}
		pos := base + req.Off
		if pos < 0 {
			return FileRep{Err: "seek: negative offset"}
		}
		e.off = pos
		return FileRep{N: pos}
	case FileStat:
		e, ok := fs.fds[req.FD]
		if !ok {
			return FileRep{Err: fmt.Sprintf("stat: bad fd %d", req.FD)}
		}
		return FileRep{N: int64(len(e.file.data))}
	case FileUnlink:
		if _, ok := fs.files[req.Path]; !ok {
			return FileRep{Err: fmt.Sprintf("unlink %s: no such file", req.Path)}
		}
		delete(fs.files, req.Path)
		return FileRep{}
	default:
		return FileRep{Err: fmt.Sprintf("bad file op %d", req.Op)}
	}
}

// openFDs returns the number of open descriptors.
func (fs *FS) openFDs() int { return len(fs.fds) }
