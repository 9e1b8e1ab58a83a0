package lab_test

import (
	"fmt"

	"adsketch/lab"
)

// Count distinct elements of a stream with the HIP counter (Algorithm 3).
func ExampleNewHIPDistinct() {
	c := lab.NewHIPDistinct(64, 1)
	for id := int64(0); id < 100000; id++ {
		c.Add(id)
		c.Add(id) // duplicates never change the estimate
	}
	est := c.Estimate()
	fmt.Printf("100k distinct, estimate within 25%%: %v\n", est > 75000 && est < 125000)
	// Output:
	// 100k distinct, estimate within 25%: true
}
