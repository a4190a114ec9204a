package telemetry

import "sort"

// Described lists the families Describe gave help text, sorted.
func (r *Registry) Described() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.help))
	for name := range r.help {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
