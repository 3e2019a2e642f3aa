package main

// Example pins the edge-cluster table at the default flags (ResNet-18,
// 24 frames): every two-tier and three-tier makespan and cut pair.
func Example() {
	main()
	// Output:
	// == Edge cluster planning for resnet18 (24 frames, Wi-Fi to edge, WAN to cloud) ==
	// WAN Mb/s  Two-tier (ms)  Three-tier (ms)  Edge gain %  Mobile cut  Edge cut
	// --------  -------------  ---------------  -----------  ----------  --------
	// 2.00      40354.84       6315.17          84.4         0           23
	// 5.00      23744.23       6333.45          73.3         0           21
	// 10.00     12183.68       6410.45          47.4         0           17
	// 20.00     6571.02        6490.74          1.2          0           9
	// 50.00     6426.51        6394.40          0.5          0           9
	// 100.00    6378.34        6362.29          0.3          0           9
	//
	// Reading: gains concentrate where the WAN is the bottleneck — the edge
	// absorbs the heavy middle layers so only a small tensor crosses the thin hop.
}
