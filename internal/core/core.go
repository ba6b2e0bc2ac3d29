// Package core assembles unbundled kernels: N transactional components
// sharing M data components over a (possibly misbehaving) message fabric —
// the architecture of Figure 1. It owns deployment-time concerns (table
// placement, routing), failure injection (independent TC and DC crashes,
// §5.3), and recovery orchestration (the out-of-band prompt that tells TCs
// a DC needs its redo stream, §4.2.1).
package core

import (
	"fmt"
	"sync"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// Options configures a deployment.
type Options struct {
	// TCs is the number of transactional components built in this
	// process (IDs 1..TCs unless TCConfig assigns explicit IDs).
	TCs int
	// DCs is the number of data components.
	DCs int
	// Tables are created on every DC (placement decides which DC actually
	// serves which key). Empty defaults to Placement.Tables() when a
	// Placement is given.
	Tables []string
	// Placement declares the deployment map: data placement (table/key to
	// DC) and §6.1 update ownership (table/key to owning TC), parsed from
	// or printable as a spec string (placement.Parse/String), so the
	// identical text can drive this in-process deployment and a fleet of
	// cmd/unbundled-tc processes. New validates it against the deployment
	// shape. Nil places every table on DC 0 with no ownership partition.
	Placement *placement.Placement
	// FleetTCs is the total number of TCs across every process sharing
	// this placement (IDs 1..FleetTCs): the ownership axes may name TCs
	// that live in other OS processes. Zero means the fleet is exactly
	// this deployment's TCs.
	FleetTCs int
	// TCConfig customizes each TC (a zero ID field is defaulted to i+1;
	// explicit IDs let one process run TC 3 of a larger fleet).
	TCConfig func(i int) tc.Config
	// DCConfig customizes each DC (the Name field is overwritten).
	DCConfig func(i int) dc.Config
	// Network, when non-nil, interposes the wire fabric between every TC
	// and DC; nil wires them with direct in-process calls.
	Network *wire.Config
	// DCAddrs connects the deployment to data components already running
	// in other OS processes (cmd/unbundled-dc) over real TCP instead of
	// building in-process DCs: entry i is the listen address of DC index
	// i, and len(DCAddrs) is the DC count. With DCAddrs set, DCs,
	// DCConfig, Tables, and Network are ignored — the DC process owns its
	// own configuration and tables — and Deployment.DCs stays empty:
	// remote DCs crash by being killed and recover by being restarted,
	// and each TC resends its redo stream to a restarted one on its own
	// (§5.3.2 "DC Failure"; see remote.go).
	DCAddrs []string
	// DialConfig shapes the TCP connections of a DCAddrs deployment
	// (resend pacing, redial backoff). The zero value uses defaults.
	DialConfig wire.DialConfig
}

// Deployment is a running unbundled kernel.
type Deployment struct {
	TCs []*tc.TC
	DCs []*dc.DC

	net *wire.Network
	// link [t][d] holds the wire pair for TC t -> DC d (nil when direct).
	clients [][]*wire.Client
	servers [][]*wire.Server
	router  placement.Router
	pl      *placement.Placement // nil when built without an explicit placement

	clientOnce sync.Once
	client     *Client
	closeOnce  sync.Once
}

// resolveRouter validates Options.Placement against the deployment shape
// (dcCount data components, a fleet of max(FleetTCs, TCs) transactional
// components) and returns the router every TC shares; without a
// Placement, a catch-all spec places every table on DC 0 unowned.
func resolveRouter(opts *Options, dcCount int) (placement.Router, error) {
	if opts.Placement == nil {
		return placement.MustParse("*: dc=0"), nil
	}
	fleet := opts.FleetTCs
	if fleet < opts.TCs {
		fleet = opts.TCs
	}
	if err := opts.Placement.Validate(dcCount, fleet); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(opts.Tables) == 0 {
		opts.Tables = opts.Placement.Tables()
	}
	return opts.Placement, nil
}

// New builds and starts a deployment.
func New(opts Options) (*Deployment, error) {
	if opts.TCs <= 0 {
		opts.TCs = 1
	}
	remote := len(opts.DCAddrs) > 0
	if remote {
		opts.DCs = len(opts.DCAddrs)
	} else if opts.DCs <= 0 {
		opts.DCs = 1
	}
	router, err := resolveRouter(&opts, opts.DCs)
	if err != nil {
		return nil, err
	}
	d := &Deployment{router: router, pl: opts.Placement}
	if remote {
		if err := d.dialDCs(opts); err != nil {
			return nil, err
		}
		return d, nil
	}
	for i := 0; i < opts.DCs; i++ {
		cfg := dc.Config{}
		if opts.DCConfig != nil {
			cfg = opts.DCConfig(i)
		}
		cfg.Name = fmt.Sprintf("dc%d", i)
		dci, err := dc.New(cfg)
		if err != nil {
			return nil, err
		}
		for _, table := range opts.Tables {
			if err := dci.CreateTable(table); err != nil {
				return nil, err
			}
		}
		d.DCs = append(d.DCs, dci)
	}
	if opts.Network != nil {
		d.net = wire.NewNetwork(*opts.Network)
	}
	err = d.assembleTCs(opts, func(_, di int) (base.Service, *wire.Client, *wire.Server) {
		if d.net == nil {
			return d.DCs[di], nil, nil
		}
		cl, srv := d.net.Connect(d.DCs[di])
		return cl, cl, srv
	})
	if err != nil {
		return nil, err
	}
	// A TC rebuilt over a previous incarnation's log (TCConfig.Dir)
	// restarts here, while the DCs are already serving: the ordinary
	// §5.3.2 restart, run at assembly time so the deployment hands back
	// only live TCs.
	for _, tci := range d.TCs {
		if tci.NeedsRecovery() {
			if err := tci.Recover(); err != nil {
				d.Close()
				return nil, fmt.Errorf("core: tc %d restart from its log: %w", tci.ID(), err)
			}
		}
	}
	return d, nil
}

// assembleTCs builds the deployment's opts.TCs transactional components
// over opts.DCs data components. connect(t, di) supplies TC t's route to
// DC di: the service the TC calls, plus the wire pair behind it (nil for a
// direct in-process call, a nil server for a dialed remote DC). A failed
// assembly closes everything built so far, connections included.
func (d *Deployment) assembleTCs(opts Options, connect func(t, di int) (base.Service, *wire.Client, *wire.Server)) error {
	for t := 0; t < opts.TCs; t++ {
		cfg := tc.Config{}
		if opts.TCConfig != nil {
			cfg = opts.TCConfig(t)
		}
		if cfg.ID == 0 {
			cfg.ID = base.TCID(t + 1)
		}
		services := make([]base.Service, opts.DCs)
		clients := make([]*wire.Client, opts.DCs)
		servers := make([]*wire.Server, opts.DCs)
		for di := range services {
			services[di], clients[di], servers[di] = connect(t, di)
		}
		// Recorded before tc.New so that Close, on failure, reaches this
		// TC's connections too.
		d.clients = append(d.clients, clients)
		d.servers = append(d.servers, servers)
		tci, err := tc.New(cfg, services, d.router)
		if err != nil {
			d.Close()
			return err
		}
		d.TCs = append(d.TCs, tci)
	}
	return nil
}

// Owner returns the ID of the TC owning update rights for (table, key)
// per the deployment's §6.1 ownership axes; zero means unowned (any TC
// may update — the posture of ownerless placements).
func (d *Deployment) Owner(table, key string) (base.TCID, error) {
	return d.router.Owner(table, key)
}

// Placement returns the deployment's placement, or nil when it was built
// without an explicit Options.Placement.
func (d *Deployment) Placement() *placement.Placement { return d.pl }

// Close stops the whole deployment: TC background work first (so commit
// barriers unblock), then the wire pumps, then the DCs. Idempotent — a
// second Close is a no-op, and closing twice never panics or hangs.
func (d *Deployment) Close() {
	d.closeOnce.Do(func() {
		for _, t := range d.TCs {
			t.Close()
		}
		for ti := range d.clients {
			for di := range d.clients[ti] {
				if d.clients[ti][di] != nil {
					d.clients[ti][di].Close()
				}
				if d.servers[ti][di] != nil {
					d.servers[ti][di].Close()
				}
			}
		}
		for _, dci := range d.DCs {
			dci.Close()
		}
	})
}

// CrashDC fails data component i: its cache and volatile state are lost;
// while down it answers nothing. In-process DCs only — a remote DC
// (Options.DCAddrs) is crashed by killing its process, and calling this
// instead panics: silently skipping would let a test believe it injected
// an outage that never happened.
func (d *Deployment) CrashDC(i int) {
	if i >= len(d.DCs) {
		panic(fmt.Sprintf("core: CrashDC(%d): DC is remote; kill its process instead", i))
	}
	d.setDCDown(i, true)
	d.DCs[i].Crash()
}

// setDCDown marks every simulated-fabric server in front of DC i up or
// down (direct wiring has none).
func (d *Deployment) setDCDown(i int, down bool) {
	for _, row := range d.servers {
		if row[i] != nil {
			row[i].SetDown(down)
		}
	}
}

// RecoverDC restarts data component i: DC-log recovery first (structures
// well-formed), then every TC is prompted to resend its redo stream from
// its redo scan start point (§4.2.1 restart, §5.3.2 "DC Failure").
func (d *Deployment) RecoverDC(i int) error {
	if i >= len(d.DCs) {
		return fmt.Errorf("core: DC %d is remote; restart its process instead", i)
	}
	if err := d.DCs[i].Recover(); err != nil {
		return err
	}
	d.setDCDown(i, false)
	for _, t := range d.TCs {
		if err := t.RecoverDC(i); err != nil {
			return err
		}
	}
	return nil
}

// CrashTC fails transactional component i (0-based): its unforced log
// tail, lock table, and transaction table are lost.
func (d *Deployment) CrashTC(i int) {
	d.TCs[i].Crash()
}

// RecoverTC restarts transactional component i: targeted DC cache resets
// and the redo resend (§5.3.2 "TC Failure"). Other TCs sharing the
// same DCs are not disturbed (§6.1.2).
func (d *Deployment) RecoverTC(i int) error {
	return d.TCs[i].Recover()
}

// CrashAll fails everything — the paper's "complete failure of both TC
// and DC returns us to the current fail-together situation".
func (d *Deployment) CrashAll() {
	for i := range d.TCs {
		d.CrashTC(i)
	}
	for i := range d.DCs {
		d.CrashDC(i)
	}
}

// RecoverAll restarts everything: DCs first (their structures must be
// well-formed before TC redo), then TCs.
func (d *Deployment) RecoverAll() error {
	for i := range d.DCs {
		if err := d.DCs[i].Recover(); err != nil {
			return err
		}
		d.setDCDown(i, false)
	}
	for i := range d.TCs {
		if err := d.TCs[i].Recover(); err != nil {
			return err
		}
	}
	return nil
}
