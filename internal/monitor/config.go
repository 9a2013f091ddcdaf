// Package monitor implements the MVTEE monitor TEE (§4.3, §5.2): the
// security manager that attests, keys and binds variant TEEs (Figure 6), and
// the MVX execution engine that distributes inputs, synchronizes checkpoints,
// evaluates consistency, votes, and replicates intermediate results to the
// next pipeline stage — with the slow/fast-path hybrid (Figure 7), selective
// MVX, and synchronous or asynchronous cross-validation (Figure 8).
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/check"
)

// PartitionPlan selects the variants for one partition. One claim means the
// partition runs a single variant on the fast path; multiple claims activate
// MVX (slow path) for the partition.
type PartitionPlan struct {
	// Variants lists the pool spec names to instantiate for this
	// partition. Length is the horizontal-scaling factor (§4.3).
	Variants []string `json:"variants"`
}

// MVX reports whether the plan activates multi-variant execution.
func (p PartitionPlan) MVX() bool { return len(p.Variants) > 1 }

// ResponseMode selects the monitor's reaction to a detected divergence.
type ResponseMode int

// Divergence responses (§2.4: accept an output by vote, halt, or recover).
const (
	// Halt stops the pipeline on the first divergence (fail-secure).
	Halt ResponseMode = iota + 1
	// DropVariant excludes dissenting variants and continues with the
	// agreeing majority's output.
	DropVariant
	// ReportOnly records the event and continues with the majority output
	// when one exists.
	ReportOnly
	// Recover excludes dissenting variants like DropVariant and additionally
	// hot-replaces dead slots from the monitor's spare pool (Figure 6):
	// attest → bind → resume at the next checkpoint, appending the new
	// binding to the binding log (§4.3).
	Recover
)

func (r ResponseMode) String() string {
	switch r {
	case Halt:
		return "halt"
	case DropVariant:
		return "drop-variant"
	case ReportOnly:
		return "report-only"
	case Recover:
		return "recover"
	default:
		return fmt.Sprintf("ResponseMode(%d)", int(r))
	}
}

// ParsePlans parses per-partition variant claims as written on the command
// line: partitions separated by ';', the specs of one partition by ','.
func ParsePlans(s string) []PartitionPlan {
	var plans []PartitionPlan
	for _, part := range strings.Split(s, ";") {
		var p PartitionPlan
		for _, v := range strings.Split(part, ",") {
			if v = strings.TrimSpace(v); v != "" {
				p.Variants = append(p.Variants, v)
			}
		}
		plans = append(plans, p)
	}
	return plans
}

// ParseResponse maps a response-mode name (as accepted on the command line
// and in provisioning JSON tooling) to its ResponseMode.
func ParseResponse(s string) (ResponseMode, error) {
	switch s {
	case "halt":
		return Halt, nil
	case "drop-variant", "drop":
		return DropVariant, nil
	case "report-only", "report":
		return ReportOnly, nil
	case "recover":
		return Recover, nil
	default:
		return 0, fmt.Errorf("%w: unknown response mode %q", ErrConfig, s)
	}
}

// MVXConfig is the runtime-provisioned configuration of §4.3: the partition
// set in use and the variant claims per partition, plus checking and
// execution policy. It is the JSON document a model owner provisions to the
// monitor (Figure 6 step 3).
type MVXConfig struct {
	// Model names the protected model (informational).
	Model string `json:"model"`
	// PartitionSet identifies which offline-generated partition set to
	// use (index into the bundle's sets).
	PartitionSet int `json:"partition_set"`
	// Plans holds one PartitionPlan per partition, in pipeline order.
	Plans []PartitionPlan `json:"plans"`
	// Async enables asynchronous cross-validation (Figure 8).
	Async bool `json:"async,omitempty"`
	// Vote is the voting strategy; zero means unanimous (§4.3 default).
	Vote check.Strategy `json:"vote,omitempty"`
	// Response is the divergence reaction; zero means Halt.
	Response ResponseMode `json:"response,omitempty"`
	// Criteria overrides the consistency policy; empty uses the default.
	Criteria []check.Criterion `json:"criteria,omitempty"`
	// StageTimeoutMS is the straggler deadline per checkpoint in
	// milliseconds; zero disables deadlines and a hung variant stalls its
	// stage (pre-robustness behavior).
	StageTimeoutMS int `json:"stage_timeout_ms,omitempty"`
	// InflightWindow is the per-stage credit budget for the pipelined engine:
	// at most this many checkpoint gathers may be outstanding per stage
	// before further batches queue. Zero disables the window.
	InflightWindow int `json:"inflight_window,omitempty"`
	// Spares lists per-partition spare variant claims (same shape as Plans):
	// spare TEEs are pre-established at deploy time (Figure 6) but bound
	// lazily, when a Recover response promotes one into a dead slot. Empty,
	// or empty per partition, means no spares there.
	Spares []PartitionPlan `json:"spares,omitempty"`
}

// ErrConfig reports an invalid MVX configuration.
var ErrConfig = errors.New("monitor: invalid MVX config")

// Validate checks the configuration.
func (c *MVXConfig) Validate() error {
	if len(c.Plans) == 0 {
		return fmt.Errorf("%w: no partition plans", ErrConfig)
	}
	for i, p := range c.Plans {
		if len(p.Variants) == 0 {
			return fmt.Errorf("%w: partition %d has no variants", ErrConfig, i)
		}
	}
	if c.StageTimeoutMS < 0 {
		return fmt.Errorf("%w: negative stage timeout %d", ErrConfig, c.StageTimeoutMS)
	}
	if c.InflightWindow < 0 {
		return fmt.Errorf("%w: negative inflight window %d", ErrConfig, c.InflightWindow)
	}
	if len(c.Spares) != 0 && len(c.Spares) != len(c.Plans) {
		return fmt.Errorf("%w: %d spare plans vs %d plans", ErrConfig, len(c.Spares), len(c.Plans))
	}
	if c.Response != 0 && c.Response != Halt && c.Response != DropVariant &&
		c.Response != ReportOnly && c.Response != Recover {
		return fmt.Errorf("%w: unknown response mode %d", ErrConfig, int(c.Response))
	}
	if c.Async && c.Vote == check.Unanimous {
		// Async mode forwards on majority quorum; unanimity is only known
		// after stragglers arrive, which is exactly the cross-validation
		// this mode performs. Allowed, but the quorum is majority-based.
		_ = c
	}
	return nil
}

func (c *MVXConfig) withDefaults() MVXConfig {
	out := *c
	if out.Vote == 0 {
		out.Vote = check.Unanimous
	}
	if out.Response == 0 {
		out.Response = Halt
	}
	return out
}

// Policy resolves the consistency policy.
func (c *MVXConfig) Policy() check.Policy {
	if len(c.Criteria) == 0 {
		return check.DefaultPolicy()
	}
	return check.Policy{Criteria: c.Criteria}
}

// Marshal renders the config as JSON for provisioning.
func (c *MVXConfig) Marshal() ([]byte, error) { return json.Marshal(c) }

// ParseConfig parses and validates a provisioned MVX configuration.
func ParseConfig(b []byte) (*MVXConfig, error) {
	var c MVXConfig
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
