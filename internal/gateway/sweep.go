package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"busaware/internal/digest"
	"busaware/internal/server"
)

// Sweep scatter-gather: a batch of cells is sharded by the same
// canonical-key hash as single requests, one sub-sweep is dispatched
// per owning backend, and the backends' NDJSON streams are merged —
// lines forwarded to the client as they arrive, with each cell's index
// remapped from its sub-sweep position back to its position in the
// client's batch and the serving backend recorded on the line.
//
// The chaos-era hardening lives in four places:
//
//   - Every sub-dispatch is admitted like a /v1/simulate attempt: the
//     request's picker claims each backend's breaker admission once
//     (so a half-open backend gets one trial sub-sweep), and each
//     dispatch's one outcome is recorded on that breaker.
//   - Every backend line's integrity digest is verified against the
//     sub-sweep coordinates before the line is trusted; a corrupt line
//     is dropped (failing the dispatch's breaker outcome) and its cell
//     re-earned elsewhere, so torn bytes never reach the client.
//   - A sub-sweep that stalls past the hedge delay has its unanswered
//     cells hedged to the next ring node; the first answer per cell
//     wins, the losing stream is canceled, and when a loser completes
//     anyway its bytes are cross-checked against the winner's.
//   - Every re-send — failover after a dead stream, a hedge, a
//     redispatch — draws on the global retry budget; once it is spent,
//     leftover cells fail fast as per-cell 503 lines instead of
//     amplifying the overload. An idle watchdog (AttemptTimeout)
//     cancels blackholed streams so they fail over instead of pinning
//     the sweep forever.

// sweepMaxBodyBytes mirrors the backend's sweep body cap.
const sweepMaxBodyBytes = 8 << 20

// sweepMaxAttempts bounds how many backends one cell may be offered to
// (initial dispatch + one retry/hedge).
const sweepMaxAttempts = 2

// SweepLine is one NDJSON line of the gateway's merged sweep stream:
// the backend's line plus which backend served it (the shard-affinity
// observability hook smpload and the experiments use).
type SweepLine struct {
	server.SweepCellResult
	Backend string `json:"backend,omitempty"`
}

// sweepState is the per-request cell ledger: which cells are answered,
// how many times each was dispatched, and how many dispatches cover it
// right now. It also serializes the response stream (one writer) and
// fans answer notifications out to the group watchdogs for first-win
// cancelation.
type sweepState struct {
	g *Gateway

	mu       sync.Mutex
	w        http.ResponseWriter
	flusher  http.Flusher
	answered []bool
	attempts []int
	inflight []int
	hedged   []bool
	// winner is the SumLine digest of each answered cell's winning
	// line, kept so a completed hedge loser can be byte-checked.
	winner       []string
	winnerStatus []int
	subs         map[chan struct{}]struct{}
}

func newSweepState(g *Gateway, w http.ResponseWriter, n int) *sweepState {
	f, _ := w.(http.Flusher)
	return &sweepState{
		g: g, w: w, flusher: f,
		answered:     make([]bool, n),
		attempts:     make([]int, n),
		inflight:     make([]int, n),
		hedged:       make([]bool, n),
		winner:       make([]string, n),
		winnerStatus: make([]int, n),
		subs:         make(map[chan struct{}]struct{}),
	}
}

// subscribe registers a watchdog's answer-notification channel.
func (st *sweepState) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	st.mu.Lock()
	st.subs[ch] = struct{}{}
	st.mu.Unlock()
	return ch
}

func (st *sweepState) unsubscribe(ch chan struct{}) {
	st.mu.Lock()
	delete(st.subs, ch)
	st.mu.Unlock()
}

// notifyLocked pokes every watchdog (caller holds the lock).
func (st *sweepState) notifyLocked() {
	for ch := range st.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// begin records one dispatch covering the given cells.
func (st *sweepState) begin(orig []int) {
	st.mu.Lock()
	for _, i := range orig {
		st.attempts[i]++
		st.inflight[i]++
	}
	st.mu.Unlock()
}

// emit writes one line for cell orig if it is still unanswered,
// re-stamping the integrity digest for the client's coordinates. A
// duplicate answer (a hedge loser that completed anyway) is dropped
// after a byte-identity cross-check against the winner.
func (st *sweepState) emit(line SweepLine, fromHedge bool) {
	i := line.Index
	d := digest.SumLine(line.Status, i, line.Response)
	st.mu.Lock()
	if st.answered[i] {
		if line.Status == http.StatusOK && st.winnerStatus[i] == http.StatusOK && d != st.winner[i] {
			st.g.metrics.hedgeMismatches.Add(1)
		}
		st.mu.Unlock()
		return
	}
	st.answered[i] = true
	st.winner[i] = d
	st.winnerStatus[i] = line.Status
	if st.hedged[i] {
		if fromHedge {
			st.g.metrics.hedgeWins.Add(1)
		} else {
			st.g.metrics.hedgePrimaryWins.Add(1)
		}
	}
	line.Digest = d
	b, err := json.Marshal(line)
	if err == nil {
		st.w.Write(append(b, '\n'))
		if st.flusher != nil {
			st.flusher.Flush()
		}
		st.g.metrics.sweepCells.Add(1)
	}
	st.notifyLocked()
	st.mu.Unlock()
}

// fail writes an error line for cell idx (unless answered meanwhile).
func (st *sweepState) fail(idx, status int, msg string) {
	st.emit(SweepLine{SweepCellResult: server.SweepCellResult{
		Index: idx, Status: status, Error: msg}}, false)
}

// allAnswered reports whether every listed cell has its line.
func (st *sweepState) allAnswered(orig []int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, i := range orig {
		if !st.answered[i] {
			return false
		}
	}
	return true
}

// finish ends one dispatch and splits its still-unanswered,
// now-uncovered cells into those eligible for another attempt and
// those out of attempts.
func (st *sweepState) finish(orig []int) (retry, spent []int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, i := range orig {
		st.inflight[i]--
		if st.answered[i] || st.inflight[i] > 0 {
			continue
		}
		if st.attempts[i] < sweepMaxAttempts {
			retry = append(retry, i)
		} else {
			spent = append(spent, i)
		}
	}
	return retry, spent
}

// pendingForHedge returns the cells still unanswered with attempt
// headroom, marking them hedged.
func (st *sweepState) pendingForHedge(orig []int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []int
	for _, i := range orig {
		if !st.answered[i] && st.attempts[i] < sweepMaxAttempts {
			st.hedged[i] = true
			out = append(out, i)
		}
	}
	return out
}

// sweepJob carries one sweep request through dispatch, hedging and
// failover.
type sweepJob struct {
	g        *Gateway
	r        *http.Request
	st       *sweepState
	cells    []server.Request
	keys     []string // canonical key per cell ("" = rejected locally)
	deadline time.Time
	// p admits every dispatch of this request: grouping, hedges and
	// failover regroups alike.
	p picker
}

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		g.gwError(w, started, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req server.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, sweepMaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		g.gwError(w, started, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Cells) == 0 {
		g.gwError(w, started, http.StatusBadRequest, "empty sweep")
		return
	}
	if len(req.Cells) > server.MaxSweepCells {
		g.gwError(w, started, http.StatusBadRequest,
			fmt.Sprintf("sweep of %d cells exceeds the %d-cell limit", len(req.Cells), server.MaxSweepCells))
		return
	}
	deadline, err := server.ParseDeadline(r.Header)
	if err != nil {
		g.gwError(w, started, http.StatusBadRequest, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	j := &sweepJob{
		g: g, r: r,
		st:       newSweepState(g, w, len(req.Cells)),
		cells:    req.Cells,
		keys:     make([]string, len(req.Cells)),
		deadline: deadline,
	}

	// Shard: group cell indices by the first backend whose breaker
	// admits them. Cells the gateway can prove invalid become 400 lines
	// without a backend round trip, and only routed cells are credited
	// to the retry budget.
	groups := make(map[*backend][]int)
	routed := 0
	for idx, cell := range req.Cells {
		key, err := server.CanonicalKey(cell)
		if err != nil {
			j.st.fail(idx, http.StatusBadRequest, err.Error())
			continue
		}
		j.keys[idx] = key
		b := j.p.pick(g.route(key), nil)
		if b == nil {
			j.st.fail(idx, http.StatusBadGateway, "no backends")
			continue
		}
		groups[b] = append(groups[b], idx)
		routed++
	}
	g.budget.OnRequest(routed)

	var wg sync.WaitGroup
	for b, orig := range groups {
		wg.Add(1)
		go func(b *backend, orig []int) {
			defer wg.Done()
			j.dispatch(b, orig, 0, false)
		}(b, orig)
	}
	wg.Wait()
	g.metrics.observe(http.StatusOK)
}

// nextBackend picks where cell idx should go instead of avoid: the
// first other route candidate the request's picker admits, falling
// back like grouping when every breaker refuses.
func (j *sweepJob) nextBackend(idx int, avoid *backend) *backend {
	return j.p.pick(j.g.route(j.keys[idx]), map[*backend]bool{avoid: true})
}

// dispatch runs one sub-sweep covering cells orig against b, watching
// it for first-win completion, hedging stragglers, and re-earning the
// unanswered remainder within budget. It returns only when every
// dispatch it spawned (hedges, failovers) has also finished.
func (j *sweepJob) dispatch(b *backend, orig []int, hop int, isHedge bool) {
	j.st.begin(orig)
	ctx, cancel := context.WithCancel(j.r.Context())
	defer cancel()
	activity := make(chan struct{}, 1)
	sub := j.st.subscribe()
	defer j.st.unsubscribe(sub)

	// The watchdog owns three clocks: first-win cancelation once every
	// cell in this group is answered (by anyone), the straggler hedge,
	// and the idle cutoff that unsticks a blackholed stream.
	var spawned sync.WaitGroup
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		var hedgec, idlec <-chan time.Time
		if !isHedge && hop == 0 {
			if d := j.g.hedgeDelay(); d > 0 && len(j.g.cluster.Load().backends) > 1 {
				ht := time.NewTimer(d)
				defer ht.Stop()
				hedgec = ht.C
			}
		}
		var idleTimer *time.Timer
		if at := j.g.cfg.AttemptTimeout; at > 0 {
			idleTimer = time.NewTimer(at)
			defer idleTimer.Stop()
			idlec = idleTimer.C
		}
		for {
			select {
			case <-ctx.Done():
				return
			case <-sub:
				if j.st.allAnswered(orig) {
					cancel()
					return
				}
			case <-activity:
				if idleTimer != nil {
					if !idleTimer.Stop() {
						<-idleTimer.C
					}
					idleTimer.Reset(j.g.cfg.AttemptTimeout)
				}
			case <-hedgec:
				hedgec = nil
				pending := j.st.pendingForHedge(orig)
				if len(pending) == 0 {
					continue
				}
				nb := j.nextBackend(pending[0], b)
				if nb == nil || !j.g.budget.TryRetry(len(pending)) {
					continue
				}
				j.g.metrics.hedgesLaunched.Add(1)
				spawned.Add(1)
				go func() {
					defer spawned.Done()
					j.dispatch(nb, pending, hop, true)
				}()
			case <-idlec:
				// No line for a full AttemptTimeout: treat the stream
				// as blackholed and cancel so the remainder fails over.
				cancel()
				return
			}
		}
	}()

	err := j.runSweepGroup(ctx, b, orig, activity, isHedge)
	cancel()
	<-watchDone
	if err == nil || j.r.Context().Err() == nil {
		// A failure is charged only when the client did not go away
		// first.
		b.breaker.Record(err)
	}
	spawned.Wait()

	retry, spent := j.st.finish(orig)
	msg := "backend stream failed"
	if err != nil {
		msg = err.Error()
	}
	for _, idx := range spent {
		j.st.fail(idx, http.StatusBadGateway, msg)
	}
	if len(retry) == 0 || j.r.Context().Err() != nil {
		return
	}
	if !j.g.budget.TryRetry(len(retry)) {
		for _, idx := range retry {
			j.st.fail(idx, http.StatusServiceUnavailable, "retry budget exhausted")
		}
		return
	}
	b.failovers.Add(uint64(len(retry)))
	j.g.metrics.failovers.Add(uint64(len(retry)))
	// Regroup the remainder by each cell's next preferred backend and
	// re-earn it there.
	regroups := make(map[*backend][]int)
	for _, idx := range retry {
		nb := j.nextBackend(idx, b)
		if nb == nil {
			j.st.fail(idx, http.StatusBadGateway, msg)
			continue
		}
		regroups[nb] = append(regroups[nb], idx)
	}
	for nb, ridx := range regroups {
		j.dispatch(nb, ridx, hop+1, isHedge)
	}
}

// runSweepGroup posts one sub-sweep to b and forwards its verified
// stream. Lines are digest-checked against the sub-sweep coordinates
// before being trusted; a corrupt line is dropped (the cell stays
// unanswered and is re-earned elsewhere) and the stream reported as a
// digest-mismatch failure once it ends. A retryable whole-sweep
// refusal (injected or real 5xx) is reported as an error so the cells
// fail over; a definitive refusal becomes per-cell lines.
func (j *sweepJob) runSweepGroup(ctx context.Context, b *backend, orig []int, activity chan<- struct{}, isHedge bool) error {
	cells := make([]server.Request, len(orig))
	for i, idx := range orig {
		cells[i] = j.cells[idx]
	}
	body, err := json.Marshal(server.SweepRequest{Cells: cells})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.GetBody = nil
	if !j.deadline.IsZero() {
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(j.deadline.UnixMilli(), 10))
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	resp, err := j.g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if retryableStatus(resp.StatusCode) {
			return fmt.Errorf("backend sweep status %d", resp.StatusCode)
		}
		// Definitive refusal (it was reachable and sure) — a retry
		// elsewhere would get the same answer for these cells.
		msg := fmt.Sprintf("backend sweep status %d", resp.StatusCode)
		for _, idx := range orig {
			j.st.emit(SweepLine{SweepCellResult: server.SweepCellResult{
				Index: idx, Status: resp.StatusCode, Error: msg}, Backend: b.addr}, false)
		}
		return nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), sweepMaxBodyBytes)
	corrupt, verified := 0, 0
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		select {
		case activity <- struct{}{}:
		default:
		}
		var line server.SweepCellResult
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("bad backend sweep line: %w", err)
		}
		if line.Index < 0 || line.Index >= len(orig) {
			return fmt.Errorf("backend sweep line index %d out of range", line.Index)
		}
		sub := line.Index
		if !digest.VerifyLine(line.Digest, line.Status, sub, line.Response) {
			// Corrupt bytes survived HTTP framing: drop the line and
			// let the cell be re-earned.
			j.g.metrics.digestMismatches.Add(1)
			corrupt++
			continue
		}
		line.Index = orig[sub]
		j.st.emit(SweepLine{SweepCellResult: line, Backend: b.addr}, isHedge)
		verified++
	}
	if corrupt > 0 {
		return fmt.Errorf("%s: %d sweep lines: %w", b.addr, corrupt, errDigestMismatch)
	}
	// Once every cell has its verified line the stream has done its
	// job: an error after that is the first-win watchdog canceling it
	// before EOF, not a backend failure.
	if err := sc.Err(); err != nil && verified < len(orig) {
		return err
	}
	return nil
}
