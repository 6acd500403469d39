// Package directives is the fixture for the diagnostics riolint raises
// about its own //riolint: comments (lintDirectives): the annotation
// inventory cannot rot, because a directive that names no analyzer, gives
// no reason, or suppresses nothing is itself a finding. A want for a bare
// directive sits in a block comment before it — anything after the
// directive on its line would be its reason.
package directives

func total(xs []int) int {
	n := 0
	//riolint:sorted the analyzer is called maporder and its directive ordered // want riolint "unknown suppression directive"
	for _, x := range xs {
		n += x
	}
	return n
}

func double(x int) int {
	/* // want riolint "needs a reason" */ //riolint:seedflow
	return x + x
}

func triple(x int) int {
	//riolint:walltime nothing on the next line reads a clock // want riolint "no longer suppresses anything"
	return 3 * x
}
