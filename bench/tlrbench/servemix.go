package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/tracereuse/tlr"
	"github.com/tracereuse/tlr/internal/ingest"
	"github.com/tracereuse/tlr/internal/service"
	"github.com/tracereuse/tlr/internal/trace"
	"github.com/tracereuse/tlr/internal/tracefile"
)

// serve-read: result-cache reads.  Four uploaded traces and a set of
// warmed result keys; nine requests in ten repeat a warm key, drawn
// Zipf(1.1) so a few keys are hot, and one is a fresh study or RTM cell
// with a budget no other request has, so it misses and inserts.

// readConfigs are the cell shapes serve-read's requests take.
var readConfigs = []func(r *tlr.Request, skip, budget uint64){
	func(r *tlr.Request, skip, budget uint64) {
		r.Study = &tlr.StudyConfig{Budget: budget, Skip: skip, Window: 64}
	},
	func(r *tlr.Request, skip, budget uint64) {
		r.Study = &tlr.StudyConfig{Budget: budget, Skip: skip, Window: 256}
	},
	func(r *tlr.Request, skip, budget uint64) {
		r.RTM = &tlr.RTMConfig{Geometry: tlr.Geometry512, Heuristic: tlr.ILREXP}
		r.Skip, r.Budget = skip, budget
	},
	func(r *tlr.Request, skip, budget uint64) {
		r.RTM = &tlr.RTMConfig{Geometry: tlr.Geometry4K, Heuristic: tlr.ILRNE}
		r.Skip, r.Budget = skip, budget
	},
}

func readRequest(digest string, shape int, skip, budget uint64) []byte {
	r := tlr.Request{Trace: tlr.TraceRef(digest)}
	readConfigs[shape](&r, skip, budget)
	return mustJSON(r)
}

func runServeRead(ctx context.Context, o *options) (*report, error) {
	sc := serveScaleFor(o.small)
	rng := newRNG(o.seed)
	starts := recordStarts(rng)
	var traces []*tracefile.Trace
	var bodies [][]byte
	var digests []string
	for i, name := range replayWorkloads {
		ts, err := recordWindows(ctx, name, starts[i], sc.readTraceLen, 1)
		if err != nil {
			return nil, err
		}
		b, err := containerBytes(ts[0])
		if err != nil {
			return nil, err
		}
		traces = append(traces, ts[0])
		bodies = append(bodies, b)
		digests = append(digests, ts[0].Digest())
	}
	// The warm keys: every trace × shape × 16 warm-ups.
	warm := make([][]byte, sc.warmKeys)
	for k := range warm {
		warm[k] = readRequest(digests[k%len(digests)], k/len(digests)%len(readConfigs), shallowSkip+uint64(k/16)*1000, sc.warmBudget)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(warm)-1))
	kinds := stratified(rng, opsNeeded(sc.readRate, o.seconds, sc.warmup), 9, 1)
	ops := make([]op, len(kinds))
	misses := 0
	for i, k := range kinds {
		if k == 0 {
			ops[i] = op{kind: "hit", path: "/v1/run", body: warm[zipf.Uint64()], after: -1}
			continue
		}
		// Misses cycle through the shapes and traces, so every stretch of
		// the sequence asks for the same mix of work.
		shape, tr := misses%len(readConfigs), misses/len(readConfigs)%len(digests)
		misses++
		body := readRequest(digests[tr], shape, uint64(rng.IntN(1000)), sc.missBudget+uint64(i))
		ops[i] = op{kind: "miss", path: "/v1/run", body: body, after: -1}
	}

	rep := newReport()
	d := &serveDef{
		name: "serve-read", limitMs: 100, rate: sc.readRate, warmup: sc.warmup, routes: []string{"POST /v1/run"}, ops: ops,
		serverArgs: func(string) []string { return nil },
		setup: func(ctx context.Context, base string) error {
			c := newClient()
			for i := range bodies {
				if err := uploadTrace(ctx, c, base, bodies[i], digests[i]); err != nil {
					return err
				}
			}
			return warmKeys(ctx, c, base, warm)
		},
		check: checkDigest(rep),
		verify: func(ctx context.Context, kept []sample, rep *report) error {
			local := tlr.NewBatcher(tlr.BatchOptions{Workers: 2})
			defer local.Close()
			for _, b := range bodies {
				if _, err := local.StoreTraceFrom(bytes.NewReader(b)); err != nil {
					return err
				}
			}
			return verifyKept(ctx, ops, kept, local, rep)
		},
		replay: func(ctx context.Context, tr *tracer, idx []int, responses map[int]sample, rep *report) (time.Duration, error) {
			svc := service.New(service.Options{Workers: 2})
			defer svc.Close()
			for _, t := range traces {
				svc.AddTrace(t)
			}
			for i, b := range warm {
				if err := inprocQuery(ctx, nil, svc, "", fmt.Sprintf("warm%d", i), b, nil, rep); err != nil {
					return 0, err
				}
			}
			t0 := time.Now()
			for _, i := range idx {
				s, ok := responses[i]
				if !ok {
					continue
				}
				if err := inprocQuery(ctx, tr, svc, "", fmt.Sprintf("q%d", i), ops[i].body, s.body, rep); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		},
	}
	return runServe(ctx, o, d, rep)
}

// stratified returns n kind indices in which every block of
// sum(counts) consecutive entries holds kind i exactly counts[i] times,
// in seed-shuffled order: the mix holds over every stretch of the
// sequence, not only on average.
func stratified(rng *rand.Rand, n int, counts ...int) []int {
	var block []int
	for k, c := range counts {
		for range c {
			block = append(block, k)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		for _, j := range rng.Perm(len(block)) {
			out = append(out, block[j])
		}
	}
	return out[:n]
}

// warmKeys computes every warm request through /v1/batch, 32 at a time.
func warmKeys(ctx context.Context, c *http.Client, base string, reqs [][]byte) error {
	for i := 0; i < len(reqs); i += 32 {
		var b bytes.Buffer
		b.WriteString(`{"jobs":[`)
		b.Write(bytes.Join(reqs[i:min(i+32, len(reqs))], []byte(",")))
		b.WriteString(`]}`)
		status, resp, err := post(ctx, c, base+"/v1/batch", b.Bytes())
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm batch: %d %s", status, strings.TrimSpace(string(resp)))
		}
		sc := bufio.NewScanner(bytes.NewReader(resp))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var r tlr.Result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return err
			}
			if r.Err != nil {
				return fmt.Errorf("warm request %s: %v", r.ID, r.Err)
			}
		}
	}
	return nil
}

// serve-write: the store under writes.  The server keeps traces and
// results on disk with a 4 MiB memory tier, so reads of recently written
// traces come from the disk tier as often as from memory.  Of every ten
// requests, four upload a trace, one ingests a foreign CSV trace, and
// five run a limit study or a reuse-distance analysis of a recently
// written trace.

// setupWrites is how many traces a serve-write set-up uploads, the
// targets of the first queries.
const setupWrites = 8

// uploadPool is how many distinct traces serve-write uploads.  Making a
// distinct trace costs this process more than storing it costs the
// server, so uploads cycle through the pool: the first reach the server
// new, later ones resend a stored trace, which the server still reads,
// validates, digests and spools in full before finding it has it.
const uploadPool = 64

// csvPool is how many distinct foreign CSV traces serve-write ingests.
const csvPool = 16

const ingestPath = "/v1/ingest?format=csv&addr-col=0&op-col=1"

var csvFormat = tlr.IngestFormat{CSV: &tlr.CSVFormat{AddrCol: 0, OpCol: 1, PCCol: -1}}

// genCSV writes a foreign address trace: "address,r|w" lines walking a
// few regions with mostly short strides.
func genCSV(rng *rand.Rand, lines int) []byte {
	var b bytes.Buffer
	addr := uint64(rng.IntN(1<<12)) << 12
	for range lines {
		switch r := rng.IntN(10); {
		case r < 7:
			addr += uint64(rng.IntN(8)+1) * 8
		case r < 9:
			addr = addr&^0xfffff | uint64(rng.IntN(1<<17))*8
		default:
			addr = uint64(rng.IntN(1<<12)) << 12
		}
		rw := 'r'
		if rng.IntN(10) < 3 {
			rw = 'w'
		}
		fmt.Fprintf(&b, "%#x,%c\n", addr, rw)
	}
	return b.Bytes()
}

// writeQuery is a query of the first budget records of a stored trace:
// a limit study or a reuse-distance analysis.
func writeQuery(digest string, analyze bool, budget uint64) (path string, body []byte) {
	if analyze {
		return "/v1/analyze", mustJSON(tlr.Request{Trace: tlr.TraceRef(digest), Analyze: &tlr.AnalyzeConfig{}, Budget: budget})
	}
	return "/v1/run", mustJSON(tlr.Request{Trace: tlr.TraceRef(digest), Study: &tlr.StudyConfig{Budget: budget, Window: 256}})
}

func runServeWrite(ctx context.Context, o *options) (*report, error) {
	sc := serveScaleFor(o.small)
	rng := newRNG(o.seed)
	n := opsNeeded(sc.writeRate, o.seconds, sc.warmup)
	perWorkload := (uploadPool + len(replayWorkloads) - 1) / len(replayWorkloads)
	starts := recordStarts(rng)
	var uploads [][]byte
	var upDigests []string
	byDigest := map[string][]byte{}
	for i, name := range replayWorkloads {
		ts, err := recordWindows(ctx, name, starts[i], sc.writeTraceLen, perWorkload)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			b, err := containerBytes(t)
			if err != nil {
				return nil, err
			}
			uploads = append(uploads, b)
			upDigests = append(upDigests, t.Digest())
			byDigest[t.Digest()] = b
		}
	}
	// Interleave the workloads so set-up and early uploads mix them.
	order := rng.Perm(len(uploads))
	var csvs [][]byte
	var csvDigests []string
	csvTraces := map[string]*tlr.Trace{}
	for range csvPool {
		c := genCSV(rng, sc.csvLines)
		t, _, err := tlr.Ingest(bytes.NewReader(c), csvFormat, tlr.IngestOptions{})
		if err != nil {
			return nil, err
		}
		csvs = append(csvs, c)
		csvDigests = append(csvDigests, t.Digest())
		csvTraces[t.Digest()] = t
	}
	setupDigests := make([]string, setupWrites)
	for i := range setupDigests {
		setupDigests[i] = upDigests[order[i]]
	}

	kinds := stratified(rng, n, 4, 1, 5)
	ops := make([]op, n)
	var writes []int // indices of write ops, in order
	nextUpload, queries := setupWrites, 0
	for i, k := range kinds {
		switch k {
		case 0:
			k := order[nextUpload%len(order)]
			nextUpload++
			ops[i] = op{kind: "upload", path: "/v1/traces", body: uploads[k], digest: upDigests[k], after: -1}
			writes = append(writes, i)
		case 1:
			k := rng.IntN(csvPool)
			ops[i] = op{kind: "ingest", path: ingestPath, body: csvs[k], digest: csvDigests[k], after: -1}
			writes = append(writes, i)
		default:
			analyze := queries%2 == 0
			queries++
			kind := "study"
			if analyze {
				kind = "analyze"
			}
			_, fallback := writeQuery(setupDigests[rng.IntN(setupWrites)], analyze, sc.queryBudget)
			// A recent write at least four requests back, or a set-up trace.
			eligible := writes
			for len(eligible) > 0 && eligible[len(eligible)-1] > i-4 {
				eligible = eligible[:len(eligible)-1]
			}
			target, digest := -1, setupDigests[rng.IntN(setupWrites)]
			if len(eligible) > 0 {
				target = eligible[len(eligible)-1-rng.IntN(min(16, len(eligible)))]
				digest = ops[target].digest
			}
			path, body := writeQuery(digest, analyze, sc.queryBudget)
			ops[i] = op{kind: kind, path: path, body: body, after: target, fallback: fallback}
		}
	}

	rep := newReport()
	d := &serveDef{
		name: "serve-write", limitMs: 250, rate: sc.writeRate, warmup: sc.warmup, ops: ops,
		routes: []string{"POST /v1/traces", "POST /v1/ingest", "POST /v1/run", "POST /v1/analyze"},
		serverArgs: func(dir string) []string {
			return []string{"-trace-dir", filepath.Join(dir, "traces"), "-result-dir", filepath.Join(dir, "results"), "-trace-store-mb", "4"}
		},
		setup: func(ctx context.Context, base string) error {
			c := newClient()
			for _, d := range setupDigests {
				if err := uploadTrace(ctx, c, base, byDigest[d], d); err != nil {
					return err
				}
			}
			return nil
		},
		check: checkDigest(rep),
		verify: func(ctx context.Context, kept []sample, rep *report) error {
			local := tlr.NewBatcher(tlr.BatchOptions{Workers: 2, TraceStoreBytes: 256 << 20})
			defer local.Close()
			stored := map[string]bool{}
			for _, s := range kept {
				var req tlr.Request
				if s.failed || json.Unmarshal(ops[s.op].sent(s.fellBack), &req) != nil {
					continue
				}
				dg := tlr.TraceRefDigest(req.Trace)
				if dg == "" || stored[dg] {
					continue
				}
				stored[dg] = true
				var err error
				if t, ok := csvTraces[dg]; ok {
					_, err = local.StoreTrace(t)
				} else {
					_, err = local.StoreTraceFrom(bytes.NewReader(byDigest[dg]))
				}
				if err != nil {
					return err
				}
			}
			return verifyKept(ctx, ops, kept, local, rep)
		},
		replay: func(ctx context.Context, tr *tracer, idx []int, responses map[int]sample, rep *report) (time.Duration, error) {
			dir, err := scratchDir(o, "serve-write-replay")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			traceDir, resultDir := filepath.Join(dir, "traces"), filepath.Join(dir, "results")
			for _, d := range []string{traceDir, resultDir} {
				if err := os.Mkdir(d, 0o755); err != nil {
					return 0, err
				}
			}
			svc := service.New(service.Options{Workers: 2, TraceCacheBytes: 4 << 20, TraceDir: traceDir, ResultDir: resultDir})
			defer svc.Close()
			for _, d := range setupDigests {
				if _, err := svc.AddTraceStream(bytes.NewReader(byDigest[d])); err != nil {
					return 0, err
				}
			}
			write := func(tr *tracer, i int) error {
				o := &ops[i]
				root := tr.begin(fmt.Sprintf("q%d", i), "request")
				defer root.end()
				if o.kind == "upload" {
					sp := root.child("tracefile.spool")
					_, err := svc.AddTraceStream(bytes.NewReader(o.body))
					sp.endWith(attrs{Bytes: int64(len(o.body))})
					return err
				}
				sp := root.child("ingest")
				defer sp.end()
				m, err := ingest.NewCSV(ingest.CSVLayout{AddrCol: 0, OpCol: 1, PCCol: -1})
				if err != nil {
					return err
				}
				t, _, err := ingest.Ingest(bytes.NewReader(o.body), m, ingest.Options{})
				if err == nil {
					svc.AddTrace(t)
				}
				return err
			}
			// The writes before the replayed stretch, which its queries read.
			for i := 0; len(idx) > 0 && i < idx[0]; i++ {
				if ops[i].digest != "" {
					if err := write(nil, i); err != nil {
						return 0, err
					}
				}
			}
			t0 := time.Now()
			for _, i := range idx {
				s, ok := responses[i]
				if !ok {
					continue
				}
				o := &ops[i]
				var err error
				if o.digest != "" {
					err = write(tr, i)
				} else {
					err = inprocQuery(ctx, tr, svc, traceDir, fmt.Sprintf("q%d", i), o.sent(s.fellBack), s.body, rep)
				}
				if err != nil {
					return 0, fmt.Errorf("replaying request %d (%s): %w", i, o.kind, err)
				}
			}
			return time.Since(t0), nil
		},
	}
	return runServe(ctx, o, d, rep)
}

// inprocQuery runs one run or analyze request body through the layers a
// server request passes — wire decode, admission, trace resolution,
// the service (cache or run), wire encode — under tr, and compares the
// result with the server's response when one is given.  traceDir is the
// disk tier's directory ("" for none), whose files are also decoded
// once through the streaming reader when a request resolves to them.
func inprocQuery(ctx context.Context, tr *tracer, svc *service.Service, traceDir, id string, body, want []byte, rep *report) error {
	root := tr.begin(id, "request")
	defer root.end()
	sp := root.child("tlr.unmarshal")
	var req tlr.Request
	err := json.Unmarshal(body, &req)
	sp.end()
	if err != nil {
		return err
	}
	if req.Kind() == "" {
		req.Analyze = &tlr.AnalyzeConfig{}
	}
	sp = root.child("service.reserve")
	release, err := svc.Reserve(1)
	if err == nil {
		release()
	}
	sp.end()
	if err != nil {
		return err
	}
	digest := tlr.TraceRefDigest(req.Trace)
	tier := "mem"
	if !inMemory(svc, digest) {
		tier = "disk"
	}
	sp = root.child("service.resolve." + tier)
	h, ok := svc.ResolveTrace(digest)
	sp.end()
	if !ok {
		return fmt.Errorf("trace %s not stored", digest)
	}
	if tier == "disk" && traceDir != "" {
		sp = root.child("tracefile.filestream")
		n, err := drainFile(filepath.Join(traceDir, tracefile.DigestFileName(digest)))
		sp.endRecords(int64(n))
		if err != nil {
			return err
		}
	}
	job, err := jobFor(id, req, h)
	if err != nil {
		return err
	}
	sp = root.child("service.run")
	res, err := svc.Submit(ctx, []service.Job{job}, 0).Wait()
	if err == nil && res[0].Cached {
		sp.s.Name = "service.hit"
	}
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("marshal")
	out, err := json.Marshal(toResult(req.Kind(), res[0].Value))
	sp.end()
	if err != nil || want == nil {
		return err
	}
	var got, server tlr.Result
	if err := json.Unmarshal(out, &got); err != nil {
		return err
	}
	if err := json.Unmarshal(want, &server); err != nil {
		rep.mismatch("request %s: undecodable response: %v", id, err)
		return nil
	}
	a, _ := payload(withoutID(got))
	b, _ := payload(withoutID(server))
	if !bytes.Equal(a, b) {
		rep.mismatch("request %s: the in-process result differs from the server's", id)
	}
	return nil
}

// inMemory reports whether the store's memory tier holds digest.
func inMemory(svc *service.Service, digest string) bool {
	for _, t := range svc.Traces() {
		if t.Digest == digest {
			return strings.Contains(t.Tier, "memory")
		}
	}
	return false
}

// drainFile decodes a stored trace file through the streaming reader.
func drainFile(path string) (uint64, error) {
	st, err := tracefile.OpenFileStream(path)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var n uint64
	for {
		b, err := st.NextBatch()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += uint64(len(b))
	}
}

// jobFor builds the service job a digest-referenced request becomes,
// keyed as the library keys it.
func jobFor(id string, req tlr.Request, h service.TraceHandle) (service.Job, error) {
	src := service.StreamSource("trace:"+h.Digest, 0, func() (trace.Stream, error) { return h.Open() })
	switch req.Kind() {
	case tlr.KindStudy:
		s := req.Study
		return service.StudyJob(id, src, service.StudyParams{Budget: s.Budget, Skip: s.Skip, Window: s.Window,
			ILRLatencies: s.ILRLatencies, TLRVariants: s.TLRVariants, Strict: s.Strict, MaxRunLen: s.MaxRunLen,
			ILPWindows: s.ILPWindows}), nil
	case tlr.KindRTM:
		return service.RTMJob(id, src, service.RTMParams{Config: *req.RTM, Skip: req.Skip, Budget: req.Budget}), nil
	case tlr.KindAnalyze:
		budget := req.Budget
		if budget == 0 {
			budget = h.Records - req.Skip
		}
		return service.AnalyzeJob(id, src, service.AnalyzeParams{Skip: req.Skip, Budget: budget}), nil
	}
	return service.Job{}, fmt.Errorf("request kind %q is not served by this benchmark", req.Kind())
}

// toResult wraps a service job's value as the public result.
func toResult(kind tlr.Kind, v any) tlr.Result {
	r := tlr.Result{Kind: kind}
	switch x := v.(type) {
	case service.StudyOutput:
		r.Study = &tlr.StudyResult{ILR: x.ILR, TLR: x.TLR, DDA: x.DDA}
	case tlr.RTMResult:
		r.RTM = &x
	case tlr.AnalyzeResult:
		r.Analyze = &x
	}
	return r
}
