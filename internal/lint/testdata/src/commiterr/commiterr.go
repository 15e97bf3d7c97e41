// Fixture for c3commiterr: type-checked under the governed import path
// c3/internal/stable by the test harness. The store methods mirror the
// stable.Store / snapshot surface whose errors form the fsync-ordered
// commit chain.
package stable

import "os"

type store struct{}

func (store) Sync() error                    { return nil }
func (store) Commit() error                  { return nil }
func (store) WriteSection(name string) error { return nil }
func (store) WriteParts(name string) error   { return nil }
func (store) Close() error                   { return nil }
func (store) Abort() error                   { return nil }

func commit(s store) error {
	s.Sync()       // want `store\.Sync error silently dropped on the commit/restore path`
	_ = s.Commit() // want `store\.Commit error explicitly discarded on the commit/restore path`
	if err := s.WriteSection("data"); err != nil {
		return err
	}
	s.WriteParts("data")             // want `store\.WriteParts error silently dropped on the commit/restore path`
	os.Rename("staged", "committed") // want `os\.Rename error silently dropped`
	go s.Commit()                    // want `go store\.Commit drops its error`
	return s.Sync()
}

func teardown(s store) error {
	s.Close()       // want `store\.Close error silently dropped`
	_ = s.Close()   // explicit best-effort discard of a cleanup call: accepted
	defer s.Close() // deferred cleanup: accepted
	defer s.Sync()  // want `deferred store\.Sync drops its error`
	return nil
}

// Methods outside the governed name sets, and error-less methods, are not
// this analyzer's business.
type gauge struct{}

func (gauge) Add(int)     {}
func (gauge) Sync() int64 { return 0 } // returns no error: out of scope

func untouched(g gauge) {
	g.Add(1)
	g.Sync()
}
