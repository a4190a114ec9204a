package experiments

import (
	"fmt"
	"strings"

	"spidercache/internal/core"
	"spidercache/internal/dataset"
	"spidercache/internal/elastic"
	"spidercache/internal/nn"
	"spidercache/internal/policy"
	"spidercache/internal/telemetry"
	"spidercache/internal/trainer"
)

// PolicyParams carries everything the policy factory needs.
type PolicyParams struct {
	Dataset  *dataset.Dataset
	Capacity int // cache budget in items
	Epochs   int // planned training length (elastic T)
	Seed     uint64

	// Spider-specific overrides; zero values mean paper defaults
	// (RStart 0.90, REnd 0.80, elastic enabled).
	RStart         float64
	REnd           float64
	DisableElastic bool

	// Metrics receives cache-internals telemetry (SpiderCache policies
	// only); nil disables recording.
	Metrics *telemetry.Registry

	// Workers bounds the SpiderCache per-batch scoring fan-out: 0 uses
	// GOMAXPROCS, 1 forces serial scoring. Results are identical either way.
	Workers int
}

// ValidatePolicy reports nil when name is buildable, or a descriptive
// error listing every accepted name.
func ValidatePolicy(name string) error {
	for _, n := range PolicyNames() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
}

// PolicyNames lists every buildable policy in evaluation order.
func PolicyNames() []string {
	return []string{"baseline", "lfu", "coordl", "shade", "icache-imp", "icache", "spider-imp", "spider"}
}

// BuildPolicy constructs a policy by its lowercase registry name.
func BuildPolicy(name string, p PolicyParams) (policy.Policy, error) {
	n := p.Dataset.Len()
	switch name {
	case "baseline":
		return policy.NewBaselineLRU(n, p.Capacity, p.Seed)
	case "lfu":
		return policy.NewLFU(n, p.Capacity, p.Seed)
	case "coordl":
		return policy.NewCoorDL(n, p.Capacity, p.Seed)
	case "shade":
		return policy.NewShade(n, p.Capacity, p.Seed)
	case "icache-imp":
		return policy.NewICacheImp(n, p.Capacity, p.Seed)
	case "icache":
		return policy.NewICache(n, p.Capacity, policy.DefaultICacheConfig(), p.Seed)
	case "spider-imp":
		return buildSpider(p, true)
	case "spider":
		return buildSpider(p, false)
	default:
		return nil, fmt.Errorf("experiments: %w", ValidatePolicy(name))
	}
}

func buildSpider(p PolicyParams, impOnly bool) (*core.SpiderCache, error) {
	epochs := p.Epochs
	if epochs < 1 {
		epochs = 1
	}
	ec := elastic.DefaultConfig(epochs)
	if p.RStart > 0 {
		ec.RStart = p.RStart
	}
	if p.REnd > 0 {
		ec.REnd = p.REnd
	}
	return core.New(core.Options{
		Capacity:         p.Capacity,
		Labels:           p.Dataset.Labels,
		Payloads:         p.Dataset.Payload,
		Elastic:          ec,
		TotalEpochs:      epochs,
		DisableHomophily: impOnly,
		DisableElastic:   p.DisableElastic,
		Metrics:          p.Metrics,
		Workers:          p.Workers,
		Seed:             p.Seed,
	})
}

// displayName maps registry names to the labels used in the paper's tables.
func displayName(name string) string {
	switch name {
	case "baseline":
		return "Baseline"
	case "lfu":
		return "LFU"
	case "coordl":
		return "CoorDL"
	case "shade":
		return "SHADE"
	case "icache-imp":
		return "iCache-imp"
	case "icache":
		return "iCache"
	case "spider-imp":
		return "SpiderCache-imp"
	case "spider":
		return "SpiderCache"
	default:
		return name
	}
}

// datasets returns the three evaluation datasets at the requested scale.
func datasets(opt Options) ([]*dataset.Dataset, error) {
	cfgs := []dataset.Config{
		dataset.CIFAR10Like(opt.Scale, opt.Seed),
		dataset.CIFAR100Like(opt.Scale, opt.Seed+1),
		dataset.ImageNetLike(opt.Scale*0.5, opt.Seed+2),
	}
	out := make([]*dataset.Dataset, len(cfgs))
	for i, c := range cfgs {
		ds, err := dataset.New(c)
		if err != nil {
			return nil, err
		}
		out[i] = ds
	}
	return out, nil
}

// cifar10 builds just the CIFAR10-like dataset.
func cifar10(opt Options) (*dataset.Dataset, error) {
	return dataset.New(dataset.CIFAR10Like(opt.Scale, opt.Seed))
}

// runConfig assembles a trainer config with repository defaults; the
// experiment Options contribute the telemetry registry.
func runConfig(opt Options, ds *dataset.Dataset, model nn.Profile, epochs int, seed uint64) trainer.Config {
	return trainer.Config{
		Dataset:    ds,
		Model:      model,
		Epochs:     epochs,
		BatchSize:  64,
		Workers:    1,
		PipelineIS: true,
		Metrics:    opt.Metrics,
		Seed:       seed,
	}
}

// runPolicy builds and trains one named policy, returning the run record.
func runPolicy(name string, ds *dataset.Dataset, model nn.Profile, epochs, capacity int, opt Options) (*trainer.Result, error) {
	pol, err := BuildPolicy(name, PolicyParams{Dataset: ds, Capacity: capacity, Epochs: epochs, Seed: opt.Seed + 99, Metrics: opt.Metrics, Workers: opt.Threads})
	if err != nil {
		return nil, err
	}
	return trainer.Run(runConfig(opt, ds, model, epochs, opt.Seed+17), pol)
}

// capacityFor converts a cache-size fraction into an item budget.
func capacityFor(ds *dataset.Dataset, frac float64) int {
	c := int(float64(ds.Len()) * frac)
	if c < 1 {
		c = 1
	}
	return c
}

// percent formats a ratio as "12.3".
func percent(x float64) string { return fmt.Sprintf("%.1f", x*100) }
