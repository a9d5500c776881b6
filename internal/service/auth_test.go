package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseAuthKeys(t *testing.T) {
	t.Parallel()
	cfgs, err := ParseAuthKeys(strings.NewReader(`
# production tenants
acme  k-acme  max_active=2 rate=5 burst=10

lab   k-lab
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("parsed %d tenants, want 2", len(cfgs))
	}
	if c := cfgs[0]; c.Name != "acme" || c.Key != "k-acme" || c.MaxActive != 2 || c.Rate != 5 || c.Burst != 10 {
		t.Errorf("acme parsed as %+v", c)
	}
	if c := cfgs[1]; c.Name != "lab" || c.Key != "k-lab" || c.MaxActive != 0 || c.Rate != 0 {
		t.Errorf("lab parsed as %+v", c)
	}

	for _, bad := range []string{
		"acme",               // missing key
		"anonymous k1",       // reserved name
		"a k1\na k2",         // duplicate tenant
		"a k1\nb k1",         // duplicate key
		"a k1 max_active",    // malformed option
		"a k1 max_active=-1", // bad value
		"a k1 rate=fast",     // bad value
		"a k1 burst=0",       // bad value
		"a k1 colour=blue",   // unknown option
	} {
		if _, err := ParseAuthKeys(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseAuthKeys(%q) accepted bad input", bad)
		}
	}
}

// startAuthServer boots a server whose manager enforces the given
// tenant set.
func startAuthServer(t *testing.T, opts Options) (*Manager, string) {
	t.Helper()
	t.Cleanup(goroutineBaseline(t))
	mgr := NewManagerOpts(opts)
	srv := NewServer(mgr)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return mgr, "http://" + srv.Addr()
}

// submitKeyed POSTs a job with an API key (empty = no key) and returns
// the status code, Retry-After header and body.
func submitKeyed(t *testing.T, base, key, spec string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/api/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	rep, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Body.Close()
	body, _ := io.ReadAll(rep.Body)
	return rep.StatusCode, rep.Header.Get("Retry-After"), string(body)
}

// TestAdmissionControl drives the whole admission gauntlet over HTTP:
// unknown keys are 401, per-tenant quotas and rate limits shed with
// 429 + Retry-After, loopback callers may stay anonymous, and shed
// submissions never fail accepted jobs.
func TestAdmissionControl(t *testing.T) {
	metrics := &Metrics{}
	mgr, base := startAuthServer(t, Options{
		Workers: 1, QueueCap: 8, Metrics: metrics,
		AuthKeys: []TenantConfig{
			{Name: "acme", Key: "k-acme", MaxActive: 1},
			// Effectively no refill inside the test window: one token,
			// then rate-limited.
			{Name: "burst", Key: "k-burst", Rate: 0.001, Burst: 1},
		},
	})
	long := `{"preset":"pipe","steps":8000,"viz_every":-1}`
	short := `{"preset":"pipe","steps":64,"viz_every":-1}`

	// Loopback callers without a key are the anonymous tenant.
	if code, _, body := submitKeyed(t, base, "", short); code != http.StatusCreated {
		t.Fatalf("anonymous loopback submit: %d %s", code, body)
	}
	// A wrong key is refused outright, loopback or not.
	if code, _, _ := submitKeyed(t, base, "k-wrong", short); code != http.StatusUnauthorized {
		t.Fatalf("bad key accepted with status %d", code)
	}
	if n := metrics.AuthFailures.Load(); n != 1 {
		t.Errorf("auth_failures_total = %d, want 1", n)
	}

	// Quota: acme may hold one active job.
	code, _, body := submitKeyed(t, base, "k-acme", long)
	if code != http.StatusCreated {
		t.Fatalf("first acme submit: %d %s", code, body)
	}
	id := ""
	if i := strings.Index(body, `"id":"`); i >= 0 {
		id = body[i+6 : i+6+strings.Index(body[i+6:], `"`)]
	}
	code, retry, _ := submitKeyed(t, base, "k-acme", long)
	if code != http.StatusTooManyRequests || retry == "" {
		t.Fatalf("over-quota submit: status %d retry-after %q, want 429 with Retry-After", code, retry)
	}
	if n := metrics.SubmitsQuotaRejected.Load(); n != 1 {
		t.Errorf("submits_quota_rejected_total = %d, want 1", n)
	}
	// Cancelling the active job frees the quota slot.
	req, _ := http.NewRequest("DELETE", base+"/api/v1/jobs/"+id, nil)
	req.Header.Set("X-API-Key", "k-acme")
	rep, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rep.Body.Close()
	waitFor(t, "quota slot released", func() bool {
		code, _, _ := submitKeyed(t, base, "k-acme", short)
		return code == http.StatusCreated
	})

	// Rate limit: one token in the bucket, then 429.
	if code, _, body := submitKeyed(t, base, "k-burst", short); code != http.StatusCreated {
		t.Fatalf("first burst submit: %d %s", code, body)
	}
	code, retry, _ = submitKeyed(t, base, "k-burst", short)
	if code != http.StatusTooManyRequests || retry == "" {
		t.Fatalf("rate-limited submit: status %d retry-after %q, want 429 with Retry-After", code, retry)
	}
	if n := metrics.SubmitsRateLimited.Load(); n != 1 {
		t.Errorf("submits_rate_limited_total = %d, want 1", n)
	}

	// No accepted job may have failed because of the shed traffic.
	waitFor(t, "accepted jobs drain", func() bool {
		for _, info := range mgr.List() {
			if !info.State.Terminal() && info.State != StateRunning && info.State != StateQueued {
				return false
			}
		}
		return true
	})
	if n := metrics.JobsFailed.Load(); n != 0 {
		t.Errorf("jobs_failed_total = %d after admission shedding, want 0", n)
	}

	t.Run("concurrent burst", testAdmissionBurst)
}

// testAdmissionBurst fires 16 concurrent SubmitAs clients at a manager
// whose queue, tenant quota and token bucket are all far smaller than
// the burst: every rejection must be a typed admission error, some of
// the burst must be shed, and no accepted job may be harmed by it.
func testAdmissionBurst(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	const tenant, clients, submits = "load", 16, 32
	mgr := NewManagerOpts(Options{
		Workers: 2, QueueCap: 8,
		AuthKeys: []TenantConfig{{Name: tenant, Key: "k-load", MaxActive: 4, Rate: 50, Burst: 8}},
	})
	defer mgr.Close()

	var (
		mu       sync.Mutex
		accepted []*Job
		shed     int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < submits; i++ {
				j, err := mgr.SubmitAs(tenant, JobSpec{Preset: "pipe", Steps: 32})
				mu.Lock()
				switch {
				case err == nil:
					accepted = append(accepted, j)
				case errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrRateLimited),
					errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
					shed++
				default:
					t.Errorf("submit failed with a non-admission error: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if shed == 0 {
		t.Errorf("burst of %d submits was never shed; admission control is not engaging", clients*submits)
	}
	t.Logf("burst: %d accepted, %d shed", len(accepted), shed)
	if len(accepted) == 0 {
		t.Error("burst admitted nothing; the finish check below would be vacuous")
	}
	for _, j := range accepted {
		waitFor(t, "accepted job "+j.ID+" to finish", func() bool { return j.State().Terminal() })
		if j.State() == StateFailed {
			t.Errorf("accepted job %s failed under shed load", j.ID)
		}
	}
}

// TestMemWatermarkShedsSubmits: with an absurdly low memory limit
// every submit is shed with ErrOverloaded — and counted — instead of
// being accepted into a heap that has no room for it.
func TestMemWatermarkShedsSubmits(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	metrics := &Metrics{}
	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Metrics: metrics, MemLimit: 1})
	defer mgr.Close()
	if _, err := mgr.Submit(quarantineSpec(64)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit under memory pressure: %v, want ErrOverloaded", err)
	}
	if n := metrics.SubmitsShed.Load(); n != 1 {
		t.Errorf("submits_shed_total = %d, want 1", n)
	}
}
