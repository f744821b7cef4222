package sim

// FleetCellConfig exposes fleetCellConfig to the external benchmarks.
var FleetCellConfig = fleetCellConfig
