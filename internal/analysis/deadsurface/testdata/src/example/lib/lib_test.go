package lib

// A use from the package's own tests does not count.
func useFromTest() {
	TestOnly()
	Unused()
}
