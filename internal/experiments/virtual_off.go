//go:build !goexperiment.synctest

package experiments

import "errors"

// RunVirtual would run fn in virtual time (virtual.go); this build has
// no testing/synctest, so it runs nothing and says so.
func RunVirtual(fn func()) error {
	return errors.New("virtual time needs a build with GOEXPERIMENT=synctest")
}
