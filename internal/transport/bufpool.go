package transport

import (
	"bufio"
	"io"
	"sync"

	"repro/internal/link"
)

// readerPool and writerPool hold the vendor's bufio pairs. The vendor
// reads only what it asked for, so a channel needs a pair only while it
// reads a registration frame or makes a call: it borrows one for that and
// gives it back, and an idle agent holds none. The pending-handshake bound
// caps how many handshakes hold a reader at once. The next call on any
// channel reuses a returned buffer, so nothing decoded may alias it:
// link.Conn.ReadFrame copies every string and slice out, and a body's
// reader reads it into bytes of its own.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

func borrowReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func borrowWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// giveBack returns fc's borrowed buffers to their pools, reset so they
// pin neither the connection nor any unread byte.
func giveBack(fc *link.Conn) {
	if fc.R != nil {
		fc.R.Reset(nil)
		readerPool.Put(fc.R)
	}
	if fc.W != nil {
		fc.W.Reset(nil)
		writerPool.Put(fc.W)
	}
	fc.R, fc.W = nil, nil
}
