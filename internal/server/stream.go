// Streamed m8 delivery for POST /compare: the flowing result path of
// the request lifecycle. A streamed compare writes each query
// sequence's alignments the moment they are final — chunked transfer,
// one flush per group — instead of buffering the whole table, and the
// concatenated bytes are identical to the buffered path (both render
// the same query-major display order through the same tabular code).
//
// # Backpressure
//
// The engine goroutine does not write to the socket; it renders each
// finished group and sends it into a channel of Config.StreamBuffer
// capacity that the handler goroutine drains onto the wire. A client
// that stops reading therefore stalls the engine after at most
// StreamBuffer further groups — bounded per-request memory, enforced by
// the channel, propagated to the engine by its own emit call blocking.
//
// # Cancellation and the status trailer
//
// The request context cancels the compare for real (see run.go), and
// the emit select below observes it even while blocked on a full
// channel. Because a stream's status line is long gone when a failure
// hits mid-body, the response announces an X-Scoris-Status trailer:
// "complete" seals a finished stream, anything else ("cancelled",
// "error") — or a missing trailer, if the connection died outright —
// marks a torn one. Consumers must treat only "complete" as a full
// result.
package server

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/align"
	"repro/internal/tabular"
)

// m8StreamAccept is the Accept value that requests streamed m8
// delivery (the header form of "stream": true).
const m8StreamAccept = "text/x-m8-stream"

// streamStatusTrailer is the HTTP trailer sealing a streamed response:
// "complete" for a full result, "cancelled"/"error" for a torn one.
const streamStatusTrailer = "X-Scoris-Status"

// streamStatusComplete is the trailer value of an intact stream.
const streamStatusComplete = "complete"

// writeStreamHeader marks the response as a stream: m8 content, the
// X-Scoris-Stream marker (how the fleet router recognizes a relayable
// stream before the first body byte), and the status-trailer
// announcement, which must precede the first write.
func writeStreamHeader(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	h.Set("X-Scoris-Stream", "m8")
	h.Set("Trailer", streamStatusTrailer)
}

// serveStreamed is the streamed sink of an admitted compare: the oris
// engine streams natively (groups arrive while later sequences are
// still extending); blat and blastn deliver their finished table one
// query-sequence run at a time. It owns release.
func (s *Server) serveStreamed(ctx context.Context, w http.ResponseWriter, c *compareCall, release func()) {
	flusher, _ := w.(http.Flusher)
	chunks := make(chan []byte, s.cfg.StreamBuffer)
	errc := make(chan error, 1)
	go func() {
		defer release()
		defer close(chunks)
		errc <- s.run(ctx, c, func(_ int, g []align.Alignment) error {
			if len(g) == 0 {
				return nil
			}
			select {
			case chunks <- tabular.AppendGroup(nil, g, c.db, c.queries[0]):
				return nil
			case <-ctx.Done():
				// Blocked on a full buffer with the client gone: the
				// ctx, not the consumer, is what unblocks the engine.
				return ctx.Err()
			}
		})
	}()

	wroteHeader := false
	//scorislint:ignore ctxloop bounded by close(chunks): the producer goroutine above is ctx-aware and always closes the channel on its way out
	for buf := range chunks {
		if !wroteHeader {
			writeStreamHeader(w)
			wroteHeader = true
		}
		if _, err := w.Write(buf); err != nil {
			// A failed write means the connection is broken; stop
			// consuming and let the engine unblock through the request
			// context, which the server cancels for a dead client.
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	err := <-errc
	switch {
	case err == nil:
		if !wroteHeader {
			// A compare with zero alignments is still a complete
			// stream: headers, empty body, sealing trailer.
			writeStreamHeader(w)
		}
		w.Header().Set(streamStatusTrailer, streamStatusComplete)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if !wroteHeader {
			// Nothing sent yet — the buffered sink's answers still
			// apply (504 for a server deadline, silence for a vanished
			// client).
			s.finishCancelled(w, ctx)
			return
		}
		s.countCancelled(ctx)
		w.Header().Set(streamStatusTrailer, "cancelled")
	default:
		if !wroteHeader {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Mid-stream failure: the 200 is irrevocable; the trailer is
		// the only channel left to say the stream is torn.
		w.Header().Set(streamStatusTrailer, "error")
	}
}
