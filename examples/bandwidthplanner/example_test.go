package main

// Example pins the bandwidth sweep at the default flags (MobileNet-v2,
// 50 jobs per batch): every LO, CO, PO and JPS average and the benefit
// range read from them.
func Example() {
	main()
	// Output:
	// == Offloading payoff for mobilenetv2 (50 jobs/batch, avg ms/job) ==
	// Mbps   LO      CO       PO      JPS     Best
	// ----   --      --       --      ---     ----
	// 1.00   732.63  4886.90  732.63  430.17  JPS
	// 2.00   732.63  2446.95  351.42  320.73  JPS
	// 3.00   732.63  1631.30  349.83  279.49  JPS
	// 5.00   732.63  978.78   266.42  243.08  JPS
	// 8.00   732.63  611.74   265.10  209.20  JPS
	// 12.00  732.63  407.82   264.37  176.64  JPS
	// 18.88  732.63  260.13   260.13  140.22  JPS
	// 25.00  732.63  197.68   197.68  120.40  JPS
	// 35.00  732.63  142.63   142.63  97.21   JPS
	// 50.00  732.63  101.34   101.34  76.29   JPS
	// 65.00  732.63  79.11    79.11   63.54   JPS
	// 80.00  732.63  65.21    65.21   54.37   JPS
	//
	// JPS beats both local-only and cloud-only from 1 to 80 Mb/s — enable offloading inside this window.
}
