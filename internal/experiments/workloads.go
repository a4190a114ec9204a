package experiments

import (
	"fmt"
	"slices"
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

	// Spider-specific elastic endpoints (Eq. 8), used as given. The
	// all-zero pair means the paper defaults, RStart 0.90 and REnd 0.80;
	// REnd = RStart is the static split.
	RStart float64
	REnd   float64

	// Metrics receives the elastic manager's imp_ratio and score_std
	// gauges (SpiderCache policies only); nil disables recording.
	Metrics *telemetry.Registry
}

// policies is the policy registry in evaluation order: the id flags and
// experiments name a policy by, the label the paper's tables print, and
// the constructor.
var policies = []struct {
	name, display string
	build         func(PolicyParams) (policy.Policy, error)
}{
	{"baseline", "Baseline", seeded(policy.NewBaselineLRU)},
	{"lfu", "LFU", seeded(policy.NewLFU)},
	{"coordl", "CoorDL", seeded(policy.NewCoorDL)},
	{"shade", "SHADE", seeded(policy.NewShade)},
	{"icache-imp", "iCache-imp", seeded(policy.NewICacheImp)},
	{"icache", "iCache", seeded(policy.NewICache)},
	{"spider-imp", "SpiderCache-imp", func(p PolicyParams) (policy.Policy, error) { return buildSpider(p, true) }},
	{"spider", "SpiderCache", func(p PolicyParams) (policy.Policy, error) { return buildSpider(p, false) }},
}

// seeded adapts a baseline constructor, which takes the dataset size, the
// item budget and a seed, to the registry's signature.
func seeded[P policy.Policy](newPolicy func(n, capacity int, seed uint64) (P, error)) func(PolicyParams) (policy.Policy, error) {
	return func(p PolicyParams) (policy.Policy, error) {
		return newPolicy(p.Dataset.Len(), p.Capacity, p.Seed)
	}
}

// ValidatePolicy reports nil when name is buildable, or a descriptive
// error listing every accepted name.
func ValidatePolicy(name string) error {
	if slices.Contains(PolicyNames(), name) {
		return nil
	}
	return fmt.Errorf("unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
}

// PolicyNames lists every buildable policy in evaluation order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, pol := range policies {
		names[i] = pol.name
	}
	return names
}

// BuildPolicy constructs a policy by its lowercase registry name.
func BuildPolicy(name string, p PolicyParams) (policy.Policy, error) {
	for _, pol := range policies {
		if pol.name == name {
			return pol.build(p)
		}
	}
	return nil, fmt.Errorf("experiments: %w", ValidatePolicy(name))
}

func buildSpider(p PolicyParams, impOnly bool) (*core.SpiderCache, error) {
	epochs := p.Epochs
	if epochs < 1 {
		epochs = 1
	}
	return core.New(core.Options{
		Capacity:         p.Capacity,
		Labels:           p.Dataset.Labels,
		Payloads:         p.Dataset.Payload,
		Elastic:          elastic.Config{RStart: p.RStart, REnd: p.REnd},
		TotalEpochs:      epochs,
		DisableHomophily: impOnly,
		Metrics:          p.Metrics,
		Seed:             p.Seed,
	})
}

// displayName maps registry names to the labels used in the paper's tables.
func displayName(name string) string {
	for _, pol := range policies {
		if pol.name == name {
			return pol.display
		}
	}
	return name
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
	pol, err := BuildPolicy(name, PolicyParams{Dataset: ds, Capacity: capacity, Epochs: epochs, Seed: opt.Seed + 99, Metrics: opt.Metrics})
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
