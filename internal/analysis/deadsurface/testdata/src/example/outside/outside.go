// Package outside is out of the walk's scope: its exported names are not
// judged, and its references count.
package outside

import "example/lib"

// Exported is not judged.
func Exported() { lib.FromOutside() }
