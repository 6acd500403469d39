package main

import (
	"flag"
	"os"
	"testing"
)

// riolint runs the command from the module root with args, as README.md
// shows it, and returns its exit status and the flags it defined.
func riolint(t *testing.T, args ...string) (int, *flag.FlagSet) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() {
		os.Args, flag.CommandLine = oldArgs, oldFlags
		os.Chdir(wd)
	}()
	os.Args = append([]string{"riolint"}, args...)
	flag.CommandLine = flag.NewFlagSet("riolint", flag.ContinueOnError)
	return run(), flag.CommandLine
}

// TestPackagePatternsOnCleanTree exercises the form README.md documents:
// naming packages selects what is reported on, and a clean tree is clean
// whichever packages are named (the call graph is the whole module's).
func TestPackagePatternsOnCleanTree(t *testing.T) {
	code, flags := riolint(t, "./internal/cache", "./internal/kernel")
	if code != 0 {
		t.Errorf("riolint ./internal/cache ./internal/kernel exited %d on a clean tree, want 0", code)
	}
	if flags.Lookup("json") == nil || flags.Lookup("tests") != nil {
		t.Errorf("riolint must define -json and not -tests (no gate lints _test.go files)")
	}
}
