package kvserver

import (
	"flag"
	"fmt"
	"time"
)

// Config is the one kvserver option set: every knob a deployment tunes,
// server side (store capacity) and client side (pool size, timeout), with
// one set of defaults and one validation site. Serve and NewPool take a
// Config, and the binaries bind their flags through
// BindStoreFlags/BindPoolFlags, so spiderkv flags and Go callers share
// names, defaults and validation by construction. The store's shard count
// follows from Capacity (one shard per 64 items, at most 16).
type Config struct {
	// Capacity is the item budget of the server's LRU store (default 1<<16).
	Capacity int
	// PoolSize is the client connection pool size (default 4).
	PoolSize int
	// Timeout bounds each dial, reply read and request flush on client
	// connections (default 10s; 0 means block indefinitely).
	Timeout time.Duration
}

// DefaultConfig returns the shared defaults every binary starts from.
func DefaultConfig() Config {
	return Config{
		Capacity: 1 << 16,
		PoolSize: 4,
		Timeout:  10 * time.Second,
	}
}

// BindStoreFlags registers the server-side knob on fs (-capacity), using
// the Config's current value as its default.
func (c *Config) BindStoreFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Capacity, "capacity", c.Capacity, "item capacity of the LRU store")
}

// BindPoolFlags registers the client-side knobs on fs (-conns, -timeout),
// using the Config's current values as defaults.
func (c *Config) BindPoolFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.PoolSize, "conns", c.PoolSize, "concurrent client connections per node")
	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-connection dial/read/write timeout")
}

// Validate rejects values no Server or Pool would accept, with the flag
// names in the message so binaries can report it verbatim. Serve calls it.
func (c Config) Validate() error {
	if c.Capacity < 1 {
		return fmt.Errorf("kvserver: -capacity must be >= 1, got %d", c.Capacity)
	}
	if c.PoolSize < 1 {
		return fmt.Errorf("kvserver: -conns must be >= 1, got %d", c.PoolSize)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("kvserver: -timeout must be >= 0, got %v", c.Timeout)
	}
	return nil
}
