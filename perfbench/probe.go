package main

import (
	"fmt"
	"path/filepath"
	"time"

	"busaware"
	"busaware/internal/digest"
	"busaware/internal/server"
	"busaware/internal/store"
)

// encodeBody renders a result the way the server and `smpsim -json`
// do: server.NewResponse, then MarshalBody.
func encodeBody(res busaware.Result) ([]byte, error) {
	resp, err := server.NewResponse(res, nil, nil)
	if err != nil {
		return nil, err
	}
	return resp.MarshalBody()
}

// directBody computes a request's /v1/simulate body without HTTP:
// busaware.RunEngine on the quantum engine, then encodeBody.
func directBody(r server.Request) ([]byte, busaware.Result, error) {
	m := busaware.PaperMachine()
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	apps, err := busaware.ParseApps(r.Apps)
	if err != nil {
		return nil, busaware.Result{}, err
	}
	s, err := busaware.NewScheduler(r.Policy, m, seed)
	if err != nil {
		return nil, busaware.Result{}, err
	}
	res, err := busaware.RunEngine(busaware.EngineQuantum, m, s, nil, apps)
	if err != nil {
		return nil, busaware.Result{}, err
	}
	body, err := encodeBody(res)
	return body, res, err
}

// probeCalls is the minimum number of calls each timed direct call is
// averaged over.
const probeCalls = 20000

// timeEach calls f(i) for i cycling over n inputs until at least calls
// calls were made, and returns the mean time per call in microseconds.
func timeEach(n, calls int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	total := (calls + n - 1) / n * n
	t0 := time.Now()
	for i := 0; i < total; i++ {
		f(i % n)
	}
	return float64(time.Since(t0)) / 1e3 / float64(total)
}

// probeLayers times direct calls into the layers on a workload's own
// requests and results: server.CanonicalKey, NewResponse+MarshalBody,
// digest.Sum/Verify on the rendered bodies, and store.Put/Get against
// a scratch store under dir.
func probeLayers(dir string, reqs []server.Request, results []busaware.Result, vals map[string]float64) error {
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		k, err := server.CanonicalKey(r)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	vals["server.canonical_key_us"] = timeEach(len(reqs), probeCalls, func(i int) {
		server.CanonicalKey(reqs[i])
	})

	bodies := make([][]byte, len(results))
	for i, res := range results {
		b, err := encodeBody(res)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	vals["server.encode_us"] = timeEach(len(results), probeCalls/4, func(i int) {
		encodeBody(results[i])
	})
	sums := make([]string, len(bodies))
	for i, b := range bodies {
		sums[i] = digest.Sum(b)
	}
	vals["digest.sum_us"] = timeEach(len(bodies), probeCalls, func(i int) { digest.Sum(bodies[i]) })
	verified := true
	vals["digest.verify_us"] = timeEach(len(bodies), probeCalls, func(i int) {
		verified = digest.Verify(sums[i], bodies[i]) && verified
	})
	if !verified {
		return fmt.Errorf("digest.Verify rejected an intact body")
	}

	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "probe-store")})
	if err != nil {
		return err
	}
	n := min(len(keys), 256)
	if len(bodies) == 0 {
		n = 0
	}
	vals["store.put_us"] = timeEach(n, n, func(i int) { st.Put(keys[i], bodies[i%len(bodies)]) })
	lost := 0
	vals["store.get_us"] = timeEach(n, 4*n, func(i int) {
		if _, tier, ok := st.Get(keys[i]); !ok || tier != store.TierDisk {
			lost++
		}
	})
	if s := st.Stats().Disk; lost != 0 || s.Puts != uint64(n) || s.VerifyFails != 0 {
		return fmt.Errorf("scratch store: %d puts for %d keys, %d lookups lost, %d verify failures", s.Puts, n, lost, s.VerifyFails)
	}
	return nil
}
