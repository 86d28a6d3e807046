package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Built-in serving limits, used where neither the tenant entry nor the
// config default overrides them. They are deliberately conservative: an
// interactive search should answer well under a second, and a single
// request should never monopolize the pool.
const (
	BuiltinMaxK           = 100
	BuiltinMaxTimeout     = 5 * time.Second
	BuiltinDefaultTimeout = 2 * time.Second
	BuiltinMaxBatch       = 16
	BuiltinMaxMutateOps   = 1000
)

// TenantLimits caps what one tenant's requests may ask for. The zero
// value of a field means "inherit": from the config's default entry for a
// named tenant, and from the built-in limits for the default entry
// itself.
type TenantLimits struct {
	// MaxK caps the requested answer count; larger requests are clamped.
	MaxK int `json:"max_k,omitempty"`
	// MaxWorkers is accepted so older tenant files still load, and must
	// be non-negative; it has no effect (searches run serially).
	MaxWorkers int `json:"max_workers,omitempty"`
	// MaxTimeoutMS caps the per-request deadline in milliseconds; longer
	// requests are clamped.
	MaxTimeoutMS int64 `json:"max_timeout_ms,omitempty"`
	// DefaultTimeoutMS is the deadline applied when a request names none.
	DefaultTimeoutMS int64 `json:"default_timeout_ms,omitempty"`
	// MaxBatch caps the number of queries in one /v1/batch request;
	// larger batches are rejected (400), not clamped — silently dropping
	// queries from a batch would corrupt the positional result mapping.
	MaxBatch int `json:"max_batch,omitempty"`
	// MaxInFlight caps how many of this tenant's requests may be admitted
	// simultaneously (streams count for their full duration, so one
	// long-lived stream occupies quota until its last byte). Breaching
	// requests get an immediate 429 with Retry-After, like the global
	// gate. 0 inherits (default entry, then the built-in: no per-tenant
	// quota — the global admission limit alone applies). Disclosed in
	// /statusz under admission.tenants.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// AllowMutate gates POST /v1/mutate and /v1/compact for this tenant.
	// Mutations change state for every tenant, so the gate exists even
	// though read limits never refuse service. nil inherits (default
	// entry, then the built-in: allowed — single-tenant deployments work
	// out of the box; multi-tenant configs deny in the default entry and
	// allow the writer tenant explicitly).
	AllowMutate *bool `json:"allow_mutate,omitempty"`
	// MaxMutateOps caps the number of ops in one /v1/mutate batch; larger
	// batches are rejected (400), not clamped — applying a silently
	// truncated batch would desynchronize the caller's view of what was
	// written.
	MaxMutateOps int `json:"max_mutate_ops,omitempty"`
}

// MutateAllowed reports the effective mutation gate (nil means allowed).
func (l TenantLimits) MutateAllowed() bool {
	return l.AllowMutate == nil || *l.AllowMutate
}

// MaxTimeout returns the cap as a duration.
func (l TenantLimits) MaxTimeout() time.Duration {
	return time.Duration(l.MaxTimeoutMS) * time.Millisecond
}

// DefaultTimeout returns the default deadline as a duration.
func (l TenantLimits) DefaultTimeout() time.Duration {
	return time.Duration(l.DefaultTimeoutMS) * time.Millisecond
}

// overlay returns l with zero fields filled from base.
func (l TenantLimits) overlay(base TenantLimits) TenantLimits {
	if l.MaxK == 0 {
		l.MaxK = base.MaxK
	}
	if l.MaxTimeoutMS == 0 {
		l.MaxTimeoutMS = base.MaxTimeoutMS
	}
	if l.DefaultTimeoutMS == 0 {
		l.DefaultTimeoutMS = base.DefaultTimeoutMS
	}
	if l.MaxBatch == 0 {
		l.MaxBatch = base.MaxBatch
	}
	if l.MaxInFlight == 0 {
		l.MaxInFlight = base.MaxInFlight
	}
	if l.AllowMutate == nil {
		l.AllowMutate = base.AllowMutate
	}
	if l.MaxMutateOps == 0 {
		l.MaxMutateOps = base.MaxMutateOps
	}
	return l
}

func (l TenantLimits) validate(who string) error {
	check := func(name string, v int64) error {
		if v < 0 {
			return fmt.Errorf("server: tenant config %s: %s must be non-negative, got %d", who, name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"max_k", int64(l.MaxK)},
		{"max_workers", int64(l.MaxWorkers)},
		{"max_timeout_ms", l.MaxTimeoutMS},
		{"default_timeout_ms", l.DefaultTimeoutMS},
		{"max_batch", int64(l.MaxBatch)},
		{"max_in_flight", int64(l.MaxInFlight)},
		{"max_mutate_ops", int64(l.MaxMutateOps)},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// builtinLimits is the hard floor every resolution chain ends in.
func builtinLimits() TenantLimits {
	return TenantLimits{
		MaxK:             BuiltinMaxK,
		MaxTimeoutMS:     BuiltinMaxTimeout.Milliseconds(),
		DefaultTimeoutMS: BuiltinDefaultTimeout.Milliseconds(),
		MaxBatch:         BuiltinMaxBatch,
		MaxMutateOps:     BuiltinMaxMutateOps,
	}
}

// TenantConfig maps tenant names (the X-Tenant request header) to serving
// limits. Requests without a header, or naming an unknown tenant, resolve
// to the default entry — serving is never refused for lack of tenant
// configuration, only capped.
//
// JSON schema (all fields optional, zero means inherit):
//
//	{
//	  "default": {"max_k": 50, "max_timeout_ms": 1000, "default_timeout_ms": 250},
//	  "tenants": {
//	    "analytics": {"max_k": 1000, "max_timeout_ms": 30000},
//	    "autocomplete": {"max_k": 5, "max_timeout_ms": 50}
//	  }
//	}
type TenantConfig struct {
	Default TenantLimits            `json:"default"`
	Tenants map[string]TenantLimits `json:"tenants"`
}

// DefaultTenantConfig is the config used when none is supplied: every
// tenant gets the built-in limits.
func DefaultTenantConfig() *TenantConfig { return &TenantConfig{} }

// LoadTenants reads and validates a TenantConfig from a JSON file.
// Unknown fields are rejected so a typoed cap fails loudly at startup
// instead of silently not applying.
func LoadTenants(path string) (*TenantConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: tenant config: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var cfg TenantConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("server: tenant config %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Validate checks every entry for negative caps.
func (c *TenantConfig) Validate() error {
	if err := c.Default.validate("default"); err != nil {
		return err
	}
	for name, l := range c.Tenants {
		if name == "" {
			return fmt.Errorf("server: tenant config: empty tenant name")
		}
		if err := l.validate(fmt.Sprintf("tenants[%q]", name)); err != nil {
			return err
		}
	}
	return nil
}

// Resolve returns the effective limits for a tenant name: the tenant's
// entry overlaid on the default entry overlaid on the built-ins. Unknown
// or empty names resolve to the default chain. The resolved default
// deadline never exceeds the resolved cap: a tenant tightening
// max_timeout_ms without restating default_timeout_ms must not inherit a
// default above its own cap.
func (c *TenantConfig) Resolve(name string) TenantLimits {
	l := c.Default.overlay(builtinLimits())
	if name != "" {
		if t, ok := c.Tenants[name]; ok {
			l = t.overlay(l)
		}
	}
	if l.MaxTimeoutMS > 0 && l.DefaultTimeoutMS > l.MaxTimeoutMS {
		l.DefaultTimeoutMS = l.MaxTimeoutMS
	}
	return l
}

// Configured reports whether name has an explicit tenant entry (as
// opposed to resolving through the default chain). The admission layer
// uses it to decide which per-tenant gates may persist: explicit names
// are a bounded set, arbitrary header values are not.
func (c *TenantConfig) Configured(name string) bool {
	_, ok := c.Tenants[name]
	return ok
}

// Names lists the configured tenant names, sorted (for /statusz).
func (c *TenantConfig) Names() []string {
	names := make([]string, 0, len(c.Tenants))
	for n := range c.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
