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

// Kind names the instrument kind family is registered as ("counter",
// "gauge" or "histogram"), or "" if no series of it is registered.
func (r *Registry) Kind(family string) string {
	for _, s := range r.snapshotSeries() {
		if s.name == family {
			return s.kind.String()
		}
	}
	return ""
}

// Families lists the distinct family names registered, sorted.
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, s := range r.snapshotSeries() {
		if !seen[s.name] {
			seen[s.name] = true
			out = append(out, s.name)
		}
	}
	sort.Strings(out)
	return out
}
