package store

// SetCommitHook installs the commit hook (see Store.commitHook) for the
// tests of package store_test. Set it before the first append.
func (s *Store) SetCommitHook(hook func()) { s.commitHook = hook }
