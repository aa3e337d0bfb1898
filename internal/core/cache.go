package core

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"sync"

	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/obs"
)

// cacheBudget bounds what a Cache keeps resident, in bytes of the datasets
// and draws its entries hold.
const cacheBudget = 64 << 20

// Cache is where prepared work outlives a job: environments keyed by
// (dataset content, split options, seed) and, under each, plans keyed by
// (spec, every option but the contract's own). The serving layer and the
// cluster worker each own one; a second contract on the same data then costs
// its search and its final train, and synthetic or inline data is not
// regenerated per job. Builds are single-flight, a failed or cancelled build
// is never kept, and the least recently used entries are dropped once the
// resident bytes pass the budget. What an evicted or dropped entry's holder
// already has stays valid; it is just no longer shared. Answers are the
// one-shot path's bit for bit, hit or miss.
type Cache struct {
	m      *CacheMetrics
	budget int64

	mu    sync.Mutex
	envs  map[string]*cacheEntry
	bytes int64
	clock uint64 // LRU time
}

// CacheMetrics are the four series a Cache reports.
type CacheMetrics struct {
	Hits, Misses, Evictions *expvar.Int // plan lookups answered / built, entries evicted
	Bytes                   *expvar.Int // gauge: resident bytes
}

// NewCacheMetrics publishes the series in r as plan_cache_hits,
// plan_cache_misses, plan_cache_evictions and plan_cache_bytes.
func NewCacheMetrics(r *obs.Registry) *CacheMetrics {
	return &CacheMetrics{
		Hits:      r.Int("plan_cache_hits"),
		Misses:    r.Int("plan_cache_misses"),
		Evictions: r.Int("plan_cache_evictions"),
		Bytes:     r.Int("plan_cache_bytes"),
	}
}

// NewCache returns an empty cache reporting into m.
func NewCache(m *CacheMetrics) *Cache {
	m.Bytes.Set(0)
	return &Cache{m: m, budget: cacheBudget, envs: make(map[string]*cacheEntry)}
}

// Data names a dataset to the cache. Equal keys promise equal bytes; Open
// resolves the source when the cache has to build from it.
type Data struct {
	Key  string
	Open func() (dataset.Source, error)
}

// cacheEntry is one environment or one plan, or the build of one in flight.
type cacheEntry struct {
	key   string
	ready chan struct{} // closed once env or plan (or err) is set
	err   error
	env   *Env
	plan  *Plan
	plans map[string]*cacheEntry // an environment's plans

	// Under Cache.mu:
	bytes int64  // as last measured, counted in Cache.bytes unless gone
	used  uint64 // Cache.clock at the last use
	gone  bool   // evicted, dropped or failed: no longer reachable or counted
}

// get returns in[key], building it with build if absent. Concurrent callers
// of one key share one build; if that build fails, each waiter builds for
// itself, so one caller's cancellation is never another's error.
func (c *Cache) get(ctx context.Context, in map[string]*cacheEntry, parent *cacheEntry, key string, build func(*cacheEntry) error) (e *cacheEntry, hit bool, err error) {
	for {
		c.mu.Lock()
		e, hit = in[key]
		if !hit {
			e = &cacheEntry{key: key, ready: make(chan struct{}), gone: parent != nil && parent.gone}
			if parent == nil {
				e.plans = make(map[string]*cacheEntry)
			}
			in[key] = e
		}
		c.clock++
		e.used = c.clock
		c.mu.Unlock()
		if !hit {
			if e.err = build(e); e.err != nil {
				c.mu.Lock()
				if in[key] == e {
					delete(in, key)
				}
				e.gone = true
				c.mu.Unlock()
			}
			close(e.ready)
			return e, false, e.err
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.err == nil {
			return e, true, nil
		}
	}
}

func (c *Cache) envEntry(ctx context.Context, data Data, opt Options) (*cacheEntry, error) {
	defer obs.StartSpan(ctx, "ingest")()
	key := fmt.Sprintf("%s|%v|%d|%v|%d", data.Key, opt.HoldoutFraction, opt.MaxHoldout, opt.TestFraction, opt.Seed)
	e, _, err := c.get(ctx, c.envs, nil, key, func(e *cacheEntry) error {
		src, err := data.Open()
		if err != nil {
			return err
		}
		e.env, err = NewEnvFromSource(src, opt)
		return err
	})
	return e, err
}

// Env returns the environment NewEnvFromSource(data, opt) would build,
// shared with every other caller that splits the same data the same way.
func (c *Cache) Env(ctx context.Context, data Data, opt Options) (*Env, error) {
	e, err := c.envEntry(ctx, data, opt.WithDefaults())
	if err != nil {
		return nil, err
	}
	c.settle(e, nil)
	return e.env, nil
}

// Train answers what TrainSourceContext(ctx, spec, data, opt) would, through
// the cached environment and plan. specKey identifies spec's class and
// hyperparameters (its JSON); Result.Diag.PlanReused reports a plan another
// contract paid for. The environment rides along for the caller's metadata.
func (c *Cache) Train(ctx context.Context, data Data, specKey string, spec models.Spec, opt Options) (*Result, *Env, error) {
	opt = opt.WithDefaults()
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	ee, err := c.envEntry(ctx, data, opt)
	if err != nil {
		return nil, nil, err
	}
	// Everything but the contract's own four fields shapes the plan.
	shape := opt
	shape.Epsilon, shape.Delta, shape.MinSampleSize, shape.WarmStart = 0, 0, 0, false
	shapeKey, err := json.Marshal(shape)
	if err != nil {
		return nil, nil, err
	}
	pe, hit, err := c.get(ctx, ee.plans, ee, specKey+"|"+string(shapeKey), func(e *cacheEntry) (err error) {
		e.plan, err = NewPlan(ctx, ee.env, spec, opt)
		return err
	})
	defer func() { c.settle(ee, pe) }()
	if err != nil {
		return nil, nil, err
	}
	if hit {
		c.m.Hits.Add(1)
	} else {
		c.m.Misses.Add(1)
	}
	res, err := pe.plan.Contract(ctx, spec, opt)
	return res, ee.env, err
}

// settle re-measures the entries a call used (an environment memoizes
// samples, a plan grows its draw) and evicts down to the budget. pe may be
// nil or a failed build.
func (c *Cache) settle(ee, pe *cacheEntry) {
	envBytes, planBytes := ee.env.residentBytes(), int64(0)
	if pe != nil && pe.err == nil {
		planBytes = pe.plan.residentBytes()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	account := func(e *cacheEntry, b int64) {
		if e != nil && !e.gone {
			c.bytes += b - e.bytes
			e.bytes = b
			c.clock++
			e.used = c.clock
		}
	}
	account(pe, planBytes)
	account(ee, envBytes) // after its plan: an environment is never older than what hangs under it
	for c.bytes > c.budget {
		// The least recently used of: any plan, any environment without
		// plans. An entry not yet measured holds nothing to free.
		var victim, under *cacheEntry
		older := func(e, parent *cacheEntry) {
			if e.bytes > 0 && (victim == nil || e.used < victim.used) {
				victim, under = e, parent
			}
		}
		for _, e := range c.envs {
			if len(e.plans) == 0 {
				older(e, nil)
			}
			for _, p := range e.plans {
				older(p, e)
			}
		}
		if victim == nil {
			break
		}
		if under != nil {
			delete(under.plans, victim.key)
		}
		c.remove(victim)
		c.m.Evictions.Add(1)
	}
	c.m.Bytes.Set(c.bytes)
}

// remove takes e (and, under an environment, its plans) out of the cache
// and out of the byte count. Callers hold c.mu.
func (c *Cache) remove(e *cacheEntry) {
	if c.envs[e.key] == e {
		delete(c.envs, e.key)
	}
	for _, p := range e.plans {
		c.remove(p)
	}
	e.gone = true
	c.bytes -= e.bytes
}

// Drop forgets every environment, and its plans, whose dataset key starts
// with keyPrefix — the dataset's files are going away, and no handle may
// outlive them in here.
func (c *Cache) Drop(keyPrefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.envs {
		if strings.HasPrefix(key, keyPrefix) {
			c.remove(e)
		}
	}
	c.m.Bytes.Set(c.bytes)
}
