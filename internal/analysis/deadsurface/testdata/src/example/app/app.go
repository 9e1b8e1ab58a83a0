// Command app is the program that uses the fixture library.
package main

import "example/lib"

func main() {
	var s lib.Shape = lib.Square{}
	var l lib.Live
	_, _ = s, l
	lib.Used()
}
