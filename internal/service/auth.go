package service

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/guard"
)

// AnonymousTenant is the tenant charged for requests that carry no API
// key. With no -auth-keys file every caller is anonymous; with one,
// only loopback callers may omit the key.
const AnonymousTenant = "anonymous"

// TenantConfig is one parsed line of the -auth-keys file:
//
//	tenant key [max_active=N] [rate=R] [burst=B]
//
// Blank lines and #-comments are skipped. Zero values mean "use the
// server defaults" for that limit.
type TenantConfig struct {
	Name      string
	Key       string
	MaxActive int
	Rate      float64
	Burst     int
}

// TenantLimits are the default admission limits applied to tenants
// that do not set their own, and to the anonymous tenant. Zero fields
// disable the corresponding limit.
type TenantLimits struct {
	// MaxActive caps a tenant's concurrently queued+running jobs.
	MaxActive int
	// Rate/Burst parameterize the tenant's submit token bucket
	// (submits per second, bucket depth).
	Rate  float64
	Burst int
}

// ValidRate reports whether r is a usable submit rate: finite and not
// negative. A NaN rate would build no token bucket and leave the
// tenant silently unlimited.
func ValidRate(r float64) bool { return r >= 0 && !math.IsInf(r, 1) }

// LoadAuthKeys reads and parses an -auth-keys file.
func LoadAuthKeys(path string) ([]TenantConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	defer f.Close()
	cfgs, err := ParseAuthKeys(f)
	if err != nil {
		return nil, fmt.Errorf("auth: %s: %w", path, err)
	}
	return cfgs, nil
}

// ParseAuthKeys parses the auth-keys format from r.
func ParseAuthKeys(r io.Reader) ([]TenantConfig, error) {
	var cfgs []TenantConfig
	seenKey := make(map[string]string)
	seenName := make(map[string]bool)
	sc := bufio.NewScanner(r)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want 'tenant key [opt=val...]', got %q", ln, line)
		}
		cfg := TenantConfig{Name: fields[0], Key: fields[1]}
		if cfg.Name == AnonymousTenant {
			return nil, fmt.Errorf("line %d: tenant name %q is reserved", ln, AnonymousTenant)
		}
		if seenName[cfg.Name] {
			return nil, fmt.Errorf("line %d: duplicate tenant %q", ln, cfg.Name)
		}
		if prev, dup := seenKey[cfg.Key]; dup {
			return nil, fmt.Errorf("line %d: key for %q already assigned to %q", ln, cfg.Name, prev)
		}
		for _, opt := range fields[2:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed option %q", ln, opt)
			}
			switch k {
			case "max_active":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("line %d: bad max_active %q", ln, v)
				}
				cfg.MaxActive = n
			case "rate":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || !ValidRate(f) {
					return nil, fmt.Errorf("line %d: bad rate %q", ln, v)
				}
				cfg.Rate = f
			case "burst":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("line %d: bad burst %q", ln, v)
				}
				cfg.Burst = n
			default:
				return nil, fmt.Errorf("line %d: unknown option %q", ln, k)
			}
		}
		seenName[cfg.Name] = true
		seenKey[cfg.Key] = cfg.Name
		cfgs = append(cfgs, cfg)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfgs, nil
}

// tenantState is one tenant's live admission bookkeeping.
type tenantState struct {
	name      string
	maxActive int
	bucket    *guard.TokenBucket
	active    int // queued + running jobs charged to this tenant
}

// tenants resolves API keys and enforces per-tenant quotas and rate
// limits. Always holds at least the anonymous tenant.
type tenants struct {
	mu       sync.Mutex
	byKey    map[string]*tenantState
	byName   map[string]*tenantState
	keyed    bool // an auth-keys file was configured
	defaults TenantLimits
}

func newTenants(cfgs []TenantConfig, defaults TenantLimits) *tenants {
	t := &tenants{
		byKey:    make(map[string]*tenantState),
		byName:   make(map[string]*tenantState),
		keyed:    len(cfgs) > 0,
		defaults: defaults,
	}
	t.byName[AnonymousTenant] = t.newState(AnonymousTenant, TenantConfig{})
	for _, cfg := range cfgs {
		st := t.newState(cfg.Name, cfg)
		t.byName[cfg.Name] = st
		t.byKey[cfg.Key] = st
	}
	return t
}

func (t *tenants) newState(name string, cfg TenantConfig) *tenantState {
	maxActive := cfg.MaxActive
	if maxActive == 0 {
		maxActive = t.defaults.MaxActive
	}
	rate, burst := cfg.Rate, cfg.Burst
	if rate == 0 {
		rate, burst = t.defaults.Rate, t.defaults.Burst
	}
	st := &tenantState{name: name, maxActive: maxActive}
	if rate > 0 {
		st.bucket = guard.NewTokenBucket(rate, float64(burst))
	}
	return st
}

// keyed reports whether an auth-keys file was loaded (and therefore
// non-loopback callers must present a valid key).
func (t *tenants) keysConfigured() bool { return t != nil && t.keyed }

// resolveKey maps an API key to its tenant name.
func (t *tenants) resolveKey(key string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.byKey[key]
	if !ok {
		return "", false
	}
	return st.name, true
}

// state returns (creating on first use, for names recovered from the
// store that no longer appear in the keys file) the tenant's record.
// Caller must hold t.mu.
func (t *tenants) stateLocked(name string) *tenantState {
	if name == "" {
		name = AnonymousTenant
	}
	st := t.byName[name]
	if st == nil {
		st = t.newState(name, TenantConfig{})
		t.byName[name] = st
	}
	return st
}

// admit charges one submit to the tenant: the token bucket first (a
// rate-limited caller should retry regardless of quota), then the
// concurrent-job quota. On success the tenant's active count is
// incremented; the caller must release it when the job leaves the
// active set (terminal or failed submission downstream).
func (t *tenants) admit(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stateLocked(name)
	if st.bucket != nil && !st.bucket.Allow() {
		return ErrRateLimited
	}
	if st.maxActive > 0 && st.active >= st.maxActive {
		return ErrQuotaExceeded
	}
	st.active++
	return nil
}

// charge increments the tenant's active count without consulting the
// bucket or quota — recovery re-charging jobs reloaded from the store.
func (t *tenants) charge(name string) {
	t.mu.Lock()
	t.stateLocked(name).active++
	t.mu.Unlock()
}

// release returns one active slot to the tenant.
func (t *tenants) release(name string) {
	t.mu.Lock()
	st := t.stateLocked(name)
	if st.active > 0 {
		st.active--
	}
	t.mu.Unlock()
}

// activeFor reports a tenant's current active count (tests, /healthz).
func (t *tenants) activeFor(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stateLocked(name).active
}
