package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"rankfair"
	"rankfair/internal/service"
)

// passResult is what one pass over a plan measured.
type passResult struct {
	setupS  []float64
	samples []sample
	// checks counts output and integrity checks made; problems lists the
	// failed ops and checks.
	checks   int
	problems []string
	notes    []string

	gcCount    uint32
	allocBytes uint64
	peakHeap   uint64

	resultHits, resultMisses   int64
	analystHits, analystMisses int64

	// host times the reference kernel; setupRef holds its time around
	// each set-up.
	host     *hostRef
	setupRef []float64

	trace  *tracer
	replay *replay
}

// sample is one measured op's latency, and the reference kernel's time
// around the op's block.
type sample struct {
	phase, role string
	round       int
	ms, ref     float64
}

// latencies returns the role's samples in ms, of one round or (round < 0)
// of all.
func (r *passResult) latencies(role string, round int) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.role == role && (round < 0 || s.round == round) {
			out = append(out, s.ms)
		}
	}
	return out
}

// adjusted returns the role's latencies in ms, each scaled to the
// reference kernel's nominal time (see hostref.go).
func (r *passResult) adjusted(role string) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.role == role {
			out = append(out, s.ms*refNominalMS/s.ref)
		}
	}
	return out
}

// adjustedSetups returns the set-up times in s, scaled like adjusted.
func (r *passResult) adjustedSetups() []float64 {
	out := make([]float64, len(r.setupS))
	for i, s := range r.setupS {
		out[i] = s * refNominalMS / r.setupRef[i]
	}
	return out
}

// refs returns the reference kernel's time around each sample's block.
func (r *passResult) refs() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.ref
	}
	return out
}

func (r *passResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records one output or integrity check.
func (r *passResult) check(ok bool, format string, args ...any) {
	r.checks++
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.notes = append(r.notes, "ok   "+msg)
		return
	}
	r.notes = append(r.notes, "FAIL "+msg)
	r.problems = append(r.problems, msg)
}

// firstAudit is a phase's first audit of a session: its job and op.
type firstAudit struct {
	id string
	op Op
}

// explainTarget is a resolved explain request: a group of a set-up
// report and the k it was detected at.
type explainTarget struct {
	Key string
	K   int
}

// runner drives one session: the measured phases, then the checks.
type runner struct {
	p   *Plan
	d   *daemon
	res *passResult
	rp  *replay

	// reportHash holds each set-up report's first body hash; every
	// measured fetch must return the same bytes.
	reportHash [][32]byte
	targets    []explainTarget
	// explainBody keeps the first response per explain target.
	explainBody map[int][]byte
	// firstJob is the first audit job of each audit phase.
	firstJob map[string]firstAudit
}

// workDir holds everything a run writes: the replay store and trace
// files.
const workDir = ".bench_build"

// runPass runs the plan's first n sessions. Each session boots a fresh
// daemon and times its set-up, runs the session's rounds and checks the
// outputs, then stops the daemon. A non-nil tracer records spans and
// replays each op's layer calls in-process.
func runPass(p *Plan, n int, host *hostRef, tr *tracer) (*passResult, error) {
	res := &passResult{host: host, trace: tr}
	rp, err := newReplay(p, tr)
	if err != nil {
		return nil, err
	}
	res.replay = rp
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	for s := 0; s < n && err == nil; s++ {
		err = runSession(p, res, s)
	}
	if err == nil && tr != nil {
		err = rp.probe()
	}
	if err := errors.Join(err, rp.close()); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	res.gcCount = ms.NumGC - gc0
	res.integrity(p)
	return res, nil
}

// runSession sets up a daemon for session s and runs the session's rounds.
func runSession(p *Plan, res *passResult, s int) error {
	before := res.host.time()
	runtime.GC()
	t0 := time.Now()
	d, err := setUp(p)
	res.setupS = append(res.setupS, time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	res.setupRef = append(res.setupRef, (before+res.host.time())/2)
	if err := res.replay.session(); err != nil {
		return errors.Join(err, d.close())
	}
	r := &runner{p: p, d: d, res: res, rp: res.replay, explainBody: map[int][]byte{}, firstJob: map[string]firstAudit{}}
	from, to := s*p.Rounds/p.Sessions, (s+1)*p.Rounds/p.Sessions
	return errors.Join(r.run(from, to), d.close())
}

// run sends the ops of rounds [from, to), then checks the session.
func (r *runner) run(from, to int) error {
	if err := r.prepare(); err != nil {
		return err
	}
	type block struct {
		ph   Phase
		ops  []Op
		reqs []request
	}
	rounds := make([][]block, to-from)
	for _, ph := range r.p.Phases {
		for _, op := range ph.Ops {
			if op.Round < from || op.Round >= to {
				continue
			}
			rr := &rounds[op.Round-from]
			if len(*rr) == 0 || (*rr)[len(*rr)-1].ph.Name != ph.Name {
				*rr = append(*rr, block{ph: ph})
			}
			b := &(*rr)[len(*rr)-1]
			b.ops = append(b.ops, op)
			b.reqs = append(b.reqs, r.render(op))
		}
	}
	rc0, ac0 := r.d.svc.Cache().Stats(), r.d.svc.AnalystCacheStats()
	// The phases take turns round by round, so each phase's rounds spread
	// over the whole run and meet the same mix of quiet and loaded spells
	// of a shared box. Each block starts from a collected heap, so no block
	// inherits another's garbage and the collector runs at the same points
	// of every round. The reference kernel runs before and after every
	// block; its mean time is the host speed the block's samples are
	// scaled by.
	for _, blocks := range rounds {
		for _, b := range blocks {
			before := r.res.host.time()
			runtime.GC()
			first := len(r.res.samples)
			for i, op := range b.ops {
				if err := r.send(b.ph, op, b.reqs[i]); err != nil {
					return err
				}
			}
			ref := (before + r.res.host.time()) / 2
			for i := first; i < len(r.res.samples); i++ {
				r.res.samples[i].ref = ref
			}
			r.sampleHeap()
		}
	}
	rc, ac := r.d.svc.Cache().Stats(), r.d.svc.AnalystCacheStats()
	r.res.resultHits += rc.Hits - rc0.Hits
	r.res.resultMisses += rc.Misses - rc0.Misses
	r.res.analystHits += ac.Hits - ac0.Hits
	r.res.analystMisses += ac.Misses - ac0.Misses
	return r.verify()
}

// prepare does the pre-clock work: it fetches each set-up report once
// (the reference bytes for report-read, the explain targets' source) and
// replays the set-up audits when tracing.
func (r *runner) prepare() error {
	for i, w := range r.p.Warmups {
		if r.res.trace != nil {
			rep, err := r.rp.audit(w.Dataset, w.Params, 0)
			if err != nil {
				return err
			}
			r.rp.warm = append(r.rp.warm, rep)
		}
		if r.p.Workload != wReportRead {
			continue
		}
		body, err := r.d.report(r.d.warmJobs[i])
		if err != nil {
			return err
		}
		r.reportHash = append(r.reportHash, sha256.Sum256(body))
		var rj rankfair.ReportJSON
		if err := json.Unmarshal(body, &rj); err != nil {
			return fmt.Errorf("decoding set-up report: %w", err)
		}
		r.rp.warmJSON = append(r.rp.warmJSON, &rj)
	}
	for _, t := range r.p.ExplainTargets {
		var entries []explainTarget
		for _, kg := range r.rp.warmJSON[t].Results {
			for _, g := range kg.Groups {
				entries = append(entries, explainTarget{Key: g.Key, K: kg.K})
			}
		}
		if len(entries) == 0 {
			return fmt.Errorf("set-up report %d has no groups to explain", t)
		}
		r.targets = append(r.targets, entries[len(entries)/2])
	}
	return nil
}

// request is one op rendered to HTTP, built before its phase's clock.
type request struct {
	method, path, ctype string
	body                []byte
}

func (r *runner) render(op Op) request {
	switch op.Kind {
	case opAudit:
		return request{"POST", "/v1/audits?wait=true", "application/json", r.d.auditBody(op.Dataset, op.Params)}
	case opReport:
		return request{"GET", "/v1/audits/" + r.d.warmJobs[op.Target] + "/report", "", nil}
	case opExplain:
		t := r.targets[op.Target]
		body, _ := json.Marshal(service.ExplainRequest{Dataset: r.d.datasets[op.Dataset].ID, Ranker: rankerSpec, Key: t.Key, K: t.K})
		return request{"POST", "/v1/explain", "application/json", body}
	}
	panic("unknown op kind " + op.Kind)
}

// send times one op, then validates its response and, when tracing,
// replays its layer calls, both outside its clock.
func (r *runner) send(ph Phase, op Op, q request) error {
	alloc0 := allocated()
	t0 := time.Now()
	status, body, err := r.d.call(q.method, q.path, q.ctype, q.body)
	lat := time.Since(t0)
	r.res.allocBytes += allocated() - alloc0
	r.res.samples = append(r.res.samples, sample{phase: ph.Name, role: op.Role, round: op.Round, ms: float64(lat.Nanoseconds()) / 1e6})
	var sp int
	if tr := r.res.trace; tr != nil {
		sp = tr.add("http."+op.Role, 0, t0, lat, true)
	}
	if err == nil {
		err = r.accept(ph, op, status, body)
	}
	if err != nil {
		r.res.fail("%s %s: %v", q.method, q.path, err)
		return nil
	}
	if r.res.trace != nil {
		return r.replayOp(op, sp)
	}
	return nil
}

// allocated reads the process's cumulative heap allocation.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (r *runner) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > r.res.peakHeap {
		r.res.peakHeap = ms.HeapInuse
	}
}

// accept validates one response; it runs after the op's clock stopped.
func (r *runner) accept(ph Phase, op Op, status int, body []byte) error {
	switch op.Kind {
	case opAudit:
		if status != http.StatusAccepted {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		var v service.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Status != service.JobDone {
			return fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
		}
		if _, ok := r.firstJob[ph.Name]; !ok {
			r.firstJob[ph.Name] = firstAudit{v.ID, op}
		}
	case opReport:
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		if sha256.Sum256(body) != r.reportHash[op.Target] {
			return fmt.Errorf("report %d body differs from its first fetch", op.Target)
		}
	case opExplain:
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		if _, ok := r.explainBody[op.Target]; !ok {
			r.explainBody[op.Target] = append([]byte(nil), body...)
		}
	}
	return nil
}

// integrity enforces that a pass exercised the layers it exists for:
// audits miss the result cache, read phases never search, every op reuses
// the warm analyst.
func (res *passResult) integrity(p *Plan) {
	audits := 0
	for _, ph := range p.Phases {
		audits += countAudits(ph, len(res.setupS)*p.Rounds/p.Sessions)
	}
	name, hits, misses := p.Workload, res.resultHits, res.resultMisses
	if audits == 0 {
		res.check(hits+misses == 0, "%s: result cache untouched (hits %d, misses %d)", name, hits, misses)
	} else {
		res.check(misses == int64(audits) && hits == 0, "%s: result-cache hit ratio 0 (hits %d, misses %d, audits %d)", name, hits, misses, audits)
	}
	res.check(res.analystMisses == 0, "%s: analyst-cache hit ratio 1 (hits %d, misses %d)", name, res.analystHits, res.analystMisses)
}

// countAudits counts a phase's audits in rounds before the given one.
func countAudits(ph Phase, rounds int) int {
	n := 0
	for _, op := range ph.Ops {
		if op.Kind == opAudit && op.Round < rounds {
			n++
		}
	}
	return n
}

// verify runs the output checks, outside every timed region.
func (r *runner) verify() error {
	switch r.p.Workload {
	case wReportRead:
		return r.verifyReads()
	}
	// The daemon retains 1 024 finished jobs; a session submits fewer, so
	// every phase's first job is still there.
	for _, ph := range r.p.Phases {
		if err := r.verifyAudit(ph); err != nil {
			return err
		}
	}
	return nil
}

// verifyAudit compares the first report of a cache-missing audit phase
// with the facade's own report for the same parameters.
func (r *runner) verifyAudit(ph Phase) error {
	first, ok := r.firstJob[ph.Name]
	if !ok {
		r.res.check(false, "%s/%s: no audit finished", r.p.Workload, ph.Name)
		return nil
	}
	got, err := r.d.report(first.id)
	if err != nil {
		r.res.check(false, "%s/%s: fetching report: %v", r.p.Workload, ph.Name, err)
		return nil
	}
	want, err := r.rp.facadeReport(r.rp.chains[first.op.Dataset].analyst, first.op.Params)
	if err != nil {
		return err
	}
	r.res.check(bytes.Equal(got, want), "%s/%s: first report equals the facade's DetectCtx(...).ToJSON() (%d bytes)", r.p.Workload, ph.Name, len(got))
	return nil
}

// verifyReads checks that one cached report equals the facade's and that
// every explain target's response equals Analyst.Explain. Repeated report
// bodies were compared byte for byte as they arrived.
func (r *runner) verifyReads() error {
	body, err := r.d.report(r.d.warmJobs[0])
	if err != nil {
		return err
	}
	want, err := r.rp.facadeReport(r.rp.chains[0].analyst, r.p.Warmups[0].Params)
	if err != nil {
		return err
	}
	r.res.check(bytes.Equal(body, want), "%s: cached report equals the facade's (%d bytes)", r.p.Workload, len(body))
	same := 0
	for i, t := range r.targets {
		got, ok := r.explainBody[i]
		if !ok {
			continue
		}
		want, err := r.rp.facadeExplain(r.d.datasets[0].ID, t)
		if err != nil {
			return err
		}
		if bytes.Equal(got, want) {
			same++
		}
	}
	r.res.check(same == len(r.explainBody) && same > 0, "%s: explain responses equal Analyst.Explain (%d of %d targets)", r.p.Workload, same, len(r.explainBody))
	return nil
}
