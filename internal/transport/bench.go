package transport

import (
	"repro/internal/agent"
	"repro/internal/link"
)

// The benchmark module (bench/) is frozen against these names from before
// the agent and the wire grammar left this package. ROADMAP item 1(a)
// moves it onto agent and link and deletes this file.
type (
	Agent           = agent.Agent
	SimFleet        = agent.SimFleet
	SimOptions      = agent.SimOptions
	ProfileDeltaReq = link.ProfileDeltaReq
	WireItem        = link.WireItem
)

var (
	NewAgent      = agent.NewAgent
	StartSimFleet = agent.StartSimFleet
)
