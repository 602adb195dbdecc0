package qvm

import "xivm/internal/pattern"

// RequiredLabels returns the pattern's concrete node labels — every
// embedding must bind one document node per pattern node, so a document (or
// an inserted forest) containing none of these labels cannot contain any
// new embedding. Wildcard nodes contribute "*" (any element).
func RequiredLabels(pt *pattern.Pattern) []string {
	seen := make(map[string]bool, len(pt.Nodes))
	out := make([]string, 0, len(pt.Nodes))
	for _, n := range pt.Nodes {
		if !seen[n.Label] {
			seen[n.Label] = true
			out = append(out, n.Label)
		}
	}
	return out
}
