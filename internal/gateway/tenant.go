package gateway

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Traffic classes, after the two workload families in the related work:
// GraphAGILE-style low-latency inference and HP-GNN-style throughput
// training. The class is descriptive (it labels the tenant in reports and
// /tenants); fairness itself comes from Weight and the SLO from SLO.
const (
	ClassLatency    = "latency"
	ClassThroughput = "throughput"
)

// TenantConfig declares one tenant of the serving gateway: its identity
// (API key), its contracted rate, its weight in the fair scheduler, and
// its latency objective.
type TenantConfig struct {
	// Name identifies the tenant in stats layers ("gateway.<name>"), SLO
	// objectives ("tenant_<name>"), and error messages.
	Name string
	// Key is the tenant's API key. Requests present it via
	// Gateway.Sample / cluster.WithAPIKey.
	Key string
	// Class labels the traffic class: ClassLatency or ClassThroughput
	// (default ClassLatency).
	Class string
	// Rate is the token-bucket refill rate: roots per second at the
	// in-process gateway, frames per second at the wire gate. 0 means
	// unlimited.
	Rate float64
	// Burst is the bucket capacity in the same unit as Rate; 0 defaults
	// to one second's worth of Rate (minimum 1).
	Burst float64
	// Weight is the tenant's share in the deficit-round-robin scheduler;
	// 0 defaults to 1.
	Weight int
	// SLO is the tenant's latency objective threshold: an admitted batch
	// is good iff it completes within this budget. 0 takes
	// DefaultTenantSLO.
	SLO time.Duration
}

// DefaultTenantSLO is the per-tenant latency objective applied when a
// TenantConfig leaves SLO zero — simulation-scale, matching the core
// system's software-batch budget.
const DefaultTenantSLO = 50 * time.Millisecond

// withDefaults normalizes zero fields and validates identity.
func (c TenantConfig) withDefaults() (TenantConfig, error) {
	if c.Name == "" {
		return c, fmt.Errorf("gateway: tenant with empty name")
	}
	if c.Key == "" {
		return c, fmt.Errorf("gateway: tenant %q has no api key", c.Name)
	}
	switch c.Class {
	case "":
		c.Class = ClassLatency
	case ClassLatency, ClassThroughput:
	default:
		return c, fmt.Errorf("gateway: tenant %q has unknown class %q", c.Name, c.Class)
	}
	if c.Rate < 0 || c.Burst < 0 {
		return c, fmt.Errorf("gateway: tenant %q has negative rate/burst", c.Name)
	}
	if !finite(c.Rate) || !finite(c.Burst) {
		return c, fmt.Errorf("gateway: tenant %q has non-finite rate/burst", c.Name)
	}
	if c.Weight == 0 {
		c.Weight = 1
	}
	if c.Weight < 0 {
		return c, fmt.Errorf("gateway: tenant %q has negative weight %d", c.Name, c.Weight)
	}
	if c.Burst == 0 && c.Rate > 0 {
		c.Burst = c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.SLO < 0 {
		return c, fmt.Errorf("gateway: tenant %q has negative slo %v", c.Name, c.SLO)
	}
	if c.SLO == 0 {
		c.SLO = DefaultTenantSLO
	}
	return c, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ParseTenants parses the -tenants flag syntax: semicolon-separated
// tenants, each a comma-separated key=value list:
//
//	name=alice,key=ak1,class=latency,rate=500,burst=64,weight=4,slo=50ms;name=bob,key=bk1,class=throughput,rate=100
//
// name and key are required; everything else takes the TenantConfig
// defaults.
func ParseTenants(spec string) ([]TenantConfig, error) {
	var out []TenantConfig
	seenName := map[string]bool{}
	seenKey := map[string]bool{}
	for _, ts := range strings.Split(spec, ";") {
		ts = strings.TrimSpace(ts)
		if ts == "" {
			continue
		}
		var c TenantConfig
		for _, kv := range strings.Split(ts, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("gateway: tenant spec field %q is not key=value", kv)
			}
			var err error
			switch k {
			case "name":
				c.Name = v
			case "key":
				c.Key = v
			case "class":
				c.Class = v
			case "rate":
				c.Rate, err = strconv.ParseFloat(v, 64)
			case "burst":
				c.Burst, err = strconv.ParseFloat(v, 64)
			case "weight":
				c.Weight, err = strconv.Atoi(v)
			case "slo":
				c.SLO, err = time.ParseDuration(v)
			default:
				return nil, fmt.Errorf("gateway: unknown tenant spec field %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("gateway: tenant spec field %q: %v", kv, err)
			}
		}
		norm, err := c.withDefaults()
		if err != nil {
			return nil, err
		}
		if seenName[norm.Name] {
			return nil, fmt.Errorf("gateway: duplicate tenant name %q", norm.Name)
		}
		if seenKey[norm.Key] {
			return nil, fmt.Errorf("gateway: duplicate api key for tenant %q", norm.Name)
		}
		seenName[norm.Name], seenKey[norm.Key] = true, true
		out = append(out, norm)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gateway: empty tenant spec")
	}
	return out, nil
}

// bucket is a token bucket with an injectable clock. A nil bucket admits
// everything (unlimited tenant).
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens/s
	burst  float64 // capacity
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newBucket(rate, burst float64, now func() time.Time) *bucket {
	if rate <= 0 {
		return nil
	}
	if now == nil {
		now = time.Now
	}
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

// take withdraws n tokens. On refusal it returns how long until the
// bucket would hold n tokens (capped at the time to fill from empty).
func (b *bucket) take(n float64) (bool, time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	missing := n - b.tokens
	if missing > b.burst {
		missing = b.burst
	}
	return false, time.Duration(missing / b.rate * float64(time.Second))
}

// TenantSnapshot is the /tenants view of one tenant: configuration plus
// live counters.
type TenantSnapshot struct {
	Name        string        `json:"name"`
	Class       string        `json:"class"`
	Rate        float64       `json:"rate"`
	Burst       float64       `json:"burst"`
	Weight      int           `json:"weight"`
	SLO         time.Duration `json:"slo_ns"`
	Admitted    int64         `json:"admitted"`
	RateLimited int64         `json:"ratelimited"`
	Shed        int64         `json:"shed"`
	Completed   int64         `json:"completed"`
	Errors      int64         `json:"errors"`
}

// snapshotTenants builds sorted /tenants rows from config + stats pairs.
func snapshotTenants(cfgs []TenantConfig, sts map[string]*TenantStats) []TenantSnapshot {
	out := make([]TenantSnapshot, 0, len(cfgs))
	for _, c := range cfgs {
		row := TenantSnapshot{
			Name: c.Name, Class: c.Class, Rate: c.Rate, Burst: c.Burst,
			Weight: c.Weight, SLO: c.SLO,
		}
		if st := sts[c.Name]; st != nil {
			row.Admitted = st.admitted.Value()
			row.RateLimited = st.ratelimited.Value()
			row.Shed = st.shed.Value()
			row.Completed = st.completed.Value()
			row.Errors = st.batchErrors.Value()
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
