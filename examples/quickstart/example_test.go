package main

// Example pins the quickstart's whole stdout: the AlexNet curve's
// totals, the 8-job JPS plan and the baseline table.
func Example() {
	main()
	// Output:
	// alexnet: 1.43 GFLOPs, local-only 1335 ms/job, cloud-only 851 ms/job
	//
	// JPS: makespan 2205 ms for 8 jobs (276 ms/job average)
	//   slot 0: job 0 cut after "conv1" (compute 119 ms, upload 280 ms)
	//   slot 1: job 1 cut after "conv1" (compute 119 ms, upload 280 ms)
	//   slot 2: job 2 cut after "conv1" (compute 119 ms, upload 280 ms)
	//   slot 3: job 3 cut after "conv1" (compute 119 ms, upload 280 ms)
	//   slot 4: job 4 cut after "conv1" (compute 119 ms, upload 280 ms)
	//   slot 5: job 5 cut after "conv1" (compute 119 ms, upload 280 ms)
	//   slot 6: job 6 cut after "conv2" (compute 494 ms, upload 202 ms)
	//   slot 7: job 7 cut after "conv2" (compute 494 ms, upload 202 ms)
	//
	// Scheme  Makespan (ms)  Speedup vs scheme
	// ------  -------------  -----------------
	// CO      6787.21        3.08x
	// LO      10676.13       4.84x
	// PO      2360.61        1.07x
}
