package capture

// PoisonReleasedBlocks makes every ring overwrite a block with b as the
// consumer hands it back, until the returned func is called. Call both
// while no pump is running.
func PoisonReleasedBlocks(b byte) (restore func()) {
	releaseHook = func(block []byte) {
		for i := range block {
			block[i] = b
		}
	}
	return func() { releaseHook = nil }
}
