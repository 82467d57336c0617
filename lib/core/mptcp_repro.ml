(** Umbrella module of the OLIA reproduction: one alias per subsystem.

    - {!Cc} — the congestion-control algorithms (OLIA, LIA, the ε-coupled
      family, Reno, BALIA), the paper's primary contribution;
    - {!Fluid} — fixed-point and differential-inclusion models
      (Scenarios A/B/C, the probing-cost optima, Theorems 1/3/4);
    - {!Netsim} — the packet-level discrete-event simulator (TCP/MPTCP
      endpoints, RED and DropTail queues, pipes);
    - {!Topology} — duplex links and the k-ary FatTree;
    - {!Workload} — traffic generators;
    - {!Scenarios} — ready-made builds of every experiment in the paper,
      plus the name-based {!Scenarios.Registry};
    - {!Exp} — the uniform experiment API and the multicore
      parameter-sweep engine;
    - {!Obs} — the observability layer: structured event tracing,
      per-run counters/timers, and perf snapshots for the CI gate;
    - {!Check} — the differential conformance harness: sim-vs-fluid
      tolerance bands, fault-recovery scenarios and golden-trace
      regression;
    - {!Stats} — summaries, histograms, time series, table printing and
      the CSV/JSON emitters. *)

module Cc = struct
  module Types = Repro_cc.Cc_types
  module Reno = Repro_cc.Reno
  module Lia = Repro_cc.Lia
  module Olia = Repro_cc.Olia
  module Coupled = Repro_cc.Coupled
  module Balia = Repro_cc.Balia
  module Fixedpoint = Repro_cc.Fixedpoint
  module Olia_fp = Repro_cc.Olia_fp
  module Balia_fp = Repro_cc.Balia_fp
  module Cubic = Repro_cc.Cubic
  module Scalable = Repro_cc.Scalable
  module Wvegas = Repro_cc.Wvegas
  module Registry = Repro_cc.Registry
end

module Fluid = struct
  module Units = Repro_fluid.Units
  module Invariant = Repro_fluid.Invariant
  module Roots = Repro_fluid.Roots
  module Tcp_model = Repro_fluid.Tcp_model
  module Scenario_a = Repro_fluid.Scenario_a
  module Scenario_b = Repro_fluid.Scenario_b
  module Scenario_c = Repro_fluid.Scenario_c
  module Network_model = Repro_fluid.Network_model
  module Equilibrium = Repro_fluid.Equilibrium
  module Olia_ode = Repro_fluid.Olia_ode
  module Lia_ode = Repro_fluid.Lia_ode
end

module Netsim = struct
  module Sim = Repro_netsim.Sim
  module Rng = Repro_netsim.Rng
  module Invariant = Repro_netsim.Invariant
  module Packet = Repro_netsim.Packet
  module Queue = Repro_netsim.Queue
  module Pipe = Repro_netsim.Pipe
  module Tcp = Repro_netsim.Tcp
  module Cbr = Repro_netsim.Cbr
  module Path_manager = Repro_netsim.Path_manager
  module Monitor = Repro_netsim.Monitor
  module Lossy = Repro_netsim.Lossy
  module Fault = Repro_netsim.Fault
  module Shard = Repro_netsim.Shard
end

module Topology = struct
  module Duplex = Repro_topology.Duplex
  module Fattree_pods = Repro_topology.Fattree_pods
  module Graph = Repro_topology.Graph
  module Builder = Repro_topology.Builder
end

module Workload = Repro_workload.Workload

module Exp = struct
  module Spec = Repro_exp.Spec
  module Outcome = Repro_exp.Outcome
  module Scenario_intf = Repro_exp.Scenario_intf
  module Sweep = Repro_exp.Sweep
end

module Obs = struct
  module Trace = Repro_obs.Trace
  module Meter = Repro_obs.Meter
  module Snapshot = Repro_obs.Snapshot
  module Report = Repro_obs.Report
end

module Check = struct
  module Band = Repro_check.Band
  module Faults = Repro_check.Faults
  module Conformance = Repro_check.Conformance
  module Diff = Repro_check.Diff
  module Golden = Repro_check.Golden
end

module Scenarios = struct
  module Common = Repro_scenarios.Common
  module Registry = Repro_scenarios.Registry
  module Scen_a = Repro_scenarios.Scen_a
  module Scen_b = Repro_scenarios.Scen_b
  module Scen_c = Repro_scenarios.Scen_c
  module Two_bottleneck = Repro_scenarios.Two_bottleneck
  module Responsiveness = Repro_scenarios.Responsiveness
  module Wireless = Repro_scenarios.Wireless
  module Fattree_dynamic = Repro_scenarios.Fattree_dynamic
  module Fattree_sharded = Repro_scenarios.Fattree_sharded
end

module Stats = struct
  module Summary = Repro_stats.Summary
  module Histogram = Repro_stats.Histogram
  module Timeseries = Repro_stats.Timeseries
  module Table = Repro_stats.Table
  module Csv = Repro_stats.Csv
  module Json = Repro_stats.Json
end
