package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/fl"
	"feddrl/internal/metrics"
	"feddrl/internal/nn"
	"feddrl/internal/rng"
)

// CommOverhead quantifies §5.3's communication claim: "our FedDRL only
// needs some extra floating point numbers for the inference loss in
// comparison with the FedAvg". For each client model the table reports
// the per-round downlink/uplink traffic and the fraction of uplink
// attributable to FedDRL's metadata.
func CommOverhead(s Scale, seed uint64) string {
	var b strings.Builder
	b.WriteString("Communication overhead per round (§5.3): FedDRL vs FedAvg payloads\n\n")
	tab := &metrics.Table{
		Headers: []string{"model", "params", "downlink/round", "uplink/round", "FedDRL extra", "overhead"},
	}
	mnist := dataset.MNISTSim().Scaled(s.DataScale)
	cifar := dataset.CIFAR100Sim().Scaled(s.DataScale)
	type mc struct {
		name string
		dim  int
	}
	cnn := s.factoryFor(mnist)(seed)
	vgg := func() int {
		sh := cifar.Shape
		return nn3VGGParams(sh.C, sh.H, sh.W, cifar.Classes, seed)
	}()
	cases := []mc{
		{"client model (mnist-sim)", cnn.NumParams()},
		{"VGGMini (cifar100-sim)", vgg},
	}
	drlCfg := s.drlConfig(s.K, seed)
	drlCfg.Hidden = 8 // size is irrelevant to the traffic accounting
	agg := fl.NewFedDRL(core.NewAgent(drlCfg))
	for _, c := range cases {
		r := fl.CommPerRoundP(agg, s.K, c.dim, fl.F64)
		tab.AddRow(c.name,
			fmt.Sprintf("%d", c.dim),
			byteStr(r.DownlinkBytes),
			byteStr(r.UplinkBytes),
			byteStr(r.OverheadBytes),
			fmt.Sprintf("%.4f%%", r.OverheadFraction()*100))
	}
	b.WriteString(tab.RenderString())
	b.WriteString("\n(the overhead is a constant 16 bytes per client per round and vanishes\nrelative to the weight payload as models grow)\n")
	return b.String()
}

func byteStr(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// nn3VGGParams instantiates VGGMini once to count parameters.
func nn3VGGParams(c, h, w, classes int, seed uint64) int {
	return nn.NewVGGMini(rng.New(seed), c, h, w, classes).NumParams()
}
