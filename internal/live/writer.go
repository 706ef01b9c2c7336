package live

import "context"

// request is one enqueued batch plus its reply channel. Replies are
// buffered so the writer never blocks on an abandoned caller.
type request struct {
	batch []Mutation
	reply chan response
}

type response struct {
	res ApplyResult
	err error
}

// StartWriter launches the graph's single writer goroutine: the one place
// mutations are applied, enforcing the non-concurrent-use contract of the
// underlying dynamic structure at the server boundary. Idempotent.
func (lg *Graph) StartWriter() {
	lg.wmu.Lock()
	defer lg.wmu.Unlock()
	if lg.started || lg.closed {
		return
	}
	lg.started = true
	go lg.writerLoop()
}

// Close stops the writer and rejects all future (and still-queued)
// mutations with ErrClosed. It blocks until the writer has drained;
// idempotent and safe to call even if StartWriter never ran.
func (lg *Graph) Close() {
	lg.wmu.Lock()
	if lg.closed {
		started := lg.started
		lg.wmu.Unlock()
		if started {
			<-lg.done
		}
		return
	}
	lg.closed = true
	started := lg.started
	lg.wmu.Unlock()
	close(lg.stop)
	if started {
		<-lg.done
	}
}

// Enqueue hands a batch to the writer goroutine and waits for the result.
// A full queue is reported immediately as ErrBacklog (the caller maps it
// to 429 + Retry-After); a closed graph as ErrClosed; ctx cancellation
// abandons the wait (the batch may still be applied by the writer).
func (lg *Graph) Enqueue(ctx context.Context, batch []Mutation) (ApplyResult, error) {
	req := request{batch: batch, reply: make(chan response, 1)}
	select {
	case lg.queue <- req:
	case <-lg.stop:
		return ApplyResult{}, ErrClosed
	case <-ctx.Done():
		return ApplyResult{}, ctx.Err()
	default:
		return ApplyResult{}, ErrBacklog
	}
	select {
	case resp := <-req.reply:
		return resp.res, resp.err
	case <-lg.stop:
		return ApplyResult{}, ErrClosed
	case <-ctx.Done():
		return ApplyResult{}, ctx.Err()
	}
}

func (lg *Graph) writerLoop() {
	defer close(lg.done)
	for {
		select {
		case req := <-lg.queue:
			res, err := lg.applyGuarded(req.batch)
			req.reply <- response{res: res, err: err}
		case <-lg.stop:
			// Drain: everything still queued is rejected, not applied.
			for {
				select {
				case req := <-lg.queue:
					req.reply <- response{err: ErrClosed}
				default:
					return
				}
			}
		}
	}
}

// applyGuarded is Apply behind a panic barrier: the writer goroutine must
// not die (it is not covered by the HTTP middleware's containment), so a
// panic is caught, the graph heals itself with a full rebuild over its
// edge store, and the caller gets a structured error.
func (lg *Graph) applyGuarded(batch []Mutation) (res ApplyResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			lg.recoverRebuild()
			res, err = ApplyResult{}, &ApplyPanicError{Value: r}
		}
	}()
	return lg.Apply(batch)
}
