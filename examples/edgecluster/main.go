// Edge-cluster deployment study: a factory floor runs quality-control
// cameras against ResNet-18 with an on-premises edge box between the
// devices and the cloud. The wireless hop to the edge is fast; the WAN
// to the cloud is thin. The example compares two-tier (mobile→cloud)
// against three-tier (mobile→edge→cloud) planning across WAN speeds,
// showing when the edge box pays for itself.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dnnjps/internal/core"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/report"
	"dnnjps/internal/tensor"
)

// The flags live at package scope so Example can run main more than once.
var (
	model = flag.String("model", "resnet18", "model name: "+fmt.Sprint(models.Names()))
	n     = flag.Int("n", 24, "frames per planning batch")
)

func main() {
	flag.Parse()

	g, err := models.Build(*model)
	if err != nil {
		log.Fatal(err)
	}
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()

	t := report.NewTable(
		fmt.Sprintf("Edge cluster planning for %s (%d frames, Wi-Fi to edge, WAN to cloud)", *model, *n),
		"WAN Mb/s", "Two-tier (ms)", "Three-tier (ms)", "Edge gain %", "Mobile cut", "Edge cut")
	for _, wan := range []float64{2, 5, 10, 20, 50, 100} {
		chain := core.Chain{
			Devices: []profile.Device{pi, gpu.Scaled(0.25), gpu},
			Links:   []netsim.Channel{netsim.WiFi, {Name: "wan", UplinkMbps: wan, SetupMs: 15}},
			DType:   tensor.Float32,
		}
		three, err := core.JPSChain(g, chain, *n)
		if err != nil {
			log.Fatal(err)
		}
		two, err := core.OneCutChain(g, chain, *n)
		if err != nil {
			log.Fatal(err)
		}
		gain := (two.Makespan - three.Makespan) / two.Makespan * 100
		if gain < 0 {
			gain = 0
		}
		t.AddRow(wan, two.Makespan, three.Makespan,
			fmt.Sprintf("%.1f", gain), three.Cuts[0][0], three.Cuts[0][1])
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading: gains concentrate where the WAN is the bottleneck — the edge")
	fmt.Println("absorbs the heavy middle layers so only a small tensor crosses the thin hop.")
}
