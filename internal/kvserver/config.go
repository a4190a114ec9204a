package kvserver

import (
	"flag"
	"fmt"
	"time"

	"spidercache/internal/telemetry"
)

// Config is the canonical kvserver option set: every knob a deployment
// tunes, server side (store capacity, shard count) and client side (pool
// size, timeouts, retry budget), in one struct with one set of defaults.
//
// Server, Pool and the daemons all derive their option structs from a
// Config — ServerOptions() and PoolOptions() are the only conversion
// points — and the binaries bind their command-line flags through
// BindStoreFlags/BindPoolFlags, so spiderkv flags, spiderload flags and Go
// callers share names, defaults and validation by construction instead of
// by convention. Options and PoolOptions remain the constructor argument
// types for compatibility; new code should start from a Config.
type Config struct {
	// Capacity is the item budget of the server's LRU store (default 1<<16).
	Capacity int
	// Shards overrides the store's automatic shard count (0 = automatic).
	Shards int
	// PoolSize is the client connection pool size (default 4).
	PoolSize int
	// Timeout bounds each dial, reply read and request flush on client
	// connections (default 10s; 0 means block indefinitely).
	Timeout time.Duration
	// Retries is the total attempt budget for idempotent pool ops; 1 or 0
	// means a single attempt (default 8). Mutations keep their provably-safe
	// retry rule regardless (see Pool).
	Retries int
	// RetrySeed drives the deterministic retry-jitter stream.
	RetrySeed uint64
	// Breaker is the per-node circuit breaker template; nil disables it.
	Breaker *BreakerOptions
}

// DefaultConfig returns the shared defaults every binary starts from.
func DefaultConfig() Config {
	return Config{
		Capacity: 1 << 16,
		Shards:   0,
		PoolSize: 4,
		Timeout:  10 * time.Second,
		Retries:  8,
	}
}

// BindStoreFlags registers the server-side knobs on fs (-capacity,
// -shards), using the Config's current values as defaults.
func (c *Config) BindStoreFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Capacity, "capacity", c.Capacity, "item capacity of the LRU store")
	fs.IntVar(&c.Shards, "shards", c.Shards, "store shards (0 = auto)")
}

// BindPoolFlags registers the client-side knobs on fs (-conns, -timeout,
// -retries), using the Config's current values as defaults.
func (c *Config) BindPoolFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.PoolSize, "conns", c.PoolSize, "concurrent client connections per node")
	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-connection dial/read/write timeout")
	fs.IntVar(&c.Retries, "retries", c.Retries, "attempts per idempotent op (1 = no retries)")
}

// Validate rejects values no Server or Pool would accept, with the flag
// names in the message so binaries can report it verbatim.
func (c Config) Validate() error {
	if c.Capacity < 1 {
		return fmt.Errorf("kvserver: -capacity must be >= 1, got %d", c.Capacity)
	}
	if c.Shards < 0 {
		return fmt.Errorf("kvserver: -shards must be >= 0, got %d", c.Shards)
	}
	if c.PoolSize < 1 {
		return fmt.Errorf("kvserver: -conns must be >= 1, got %d", c.PoolSize)
	}
	if c.Retries < 1 {
		return fmt.Errorf("kvserver: -retries must be >= 1, got %d", c.Retries)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("kvserver: -timeout must be >= 0, got %v", c.Timeout)
	}
	return nil
}

// Dial returns the DialOptions the Config describes: one Timeout applied
// to dial, read and write.
func (c Config) Dial() DialOptions {
	return DialOptions{DialTimeout: c.Timeout, ReadTimeout: c.Timeout, WriteTimeout: c.Timeout}
}

// Retry returns the RetryOptions the Config describes.
func (c Config) Retry() RetryOptions {
	attempts := c.Retries
	if attempts < 1 {
		attempts = 1
	}
	return RetryOptions{Attempts: attempts, Seed: c.RetrySeed}
}

// ServerOptions converts the Config's server-side knobs into the Options
// ServeWith/ServeOn accept; reg may be nil (the server then owns a private
// registry).
func (c Config) ServerOptions(reg *telemetry.Registry) Options {
	return Options{Capacity: c.Capacity, Shards: c.Shards, Registry: reg}
}

// PoolOptions converts the Config's client-side knobs into the options
// NewPool accepts. Each node's breaker gets its own instance cloned from
// the template, so pools never share trip state.
func (c Config) PoolOptions(name string, lazy bool, reg *telemetry.Registry) PoolOptions {
	var breaker *BreakerOptions
	if c.Breaker != nil {
		b := *c.Breaker
		breaker = &b
	}
	return PoolOptions{
		Size:        c.PoolSize,
		DialOptions: c.Dial(),
		LazyDial:    lazy,
		Retry:       c.Retry(),
		Breaker:     breaker,
		Name:        name,
		Registry:    reg,
	}
}
