package main

// Example pins the six-camera round: every network's JPS, LO, PO and
// simulated makespan, the utilizations, and each camera's cut and
// completion time at 4G.
func Example() {
	main()
	// Output:
	// == Per-round makespan for 6 camera frames (ResNet-18) ==
	// Network  JPS (ms)  LO (ms)   PO (ms)   Sim (ms)  CPU util  Uplink util  FPS/cam
	// -------  --------  -------   -------   --------  --------  -----------  -------
	// 3G       12661.53  18318.46  18318.46  12664.31  88%       84%          0.08
	// 4G       4418.69   18318.46  5090.41   4423.18   87%       96%          0.23
	// Wi-Fi    1493.75   18318.46  1578.79   1498.24   86%       100%         0.67
	//
	// Per-camera completion at 4G (frames all captured at t=0):
	//   camera 0: cut after "input"                done at   855.9 ms
	//   camera 1: cut after "input"                done at  1704.3 ms
	//   camera 2: cut after "input"                done at  2552.7 ms
	//   camera 3: cut after "stage2_block0"        done at  3123.6 ms
	//   camera 4: cut after "stage2_block0"        done at  3697.6 ms
	//   camera 5: cut after "stage2_block0"        done at  4423.2 ms
}
