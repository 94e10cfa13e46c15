(* Short aliases for the substrate libraries, opened by every module (and
   interface) of the core protocol library. *)

module Bigint = Ppst_bigint.Bigint
module Modular = Ppst_bigint.Modular
module Splitmix = Ppst_bigint.Splitmix
module Secure_rng = Ppst_rng.Secure_rng
module Paillier = Ppst_paillier.Paillier
module Series = Ppst_timeseries.Series
module Distance = Ppst_timeseries.Distance
module Lower_bound = Ppst_timeseries.Lower_bound
module Paa = Ppst_timeseries.Paa
module Store = Ppst_catalog.Store
module Parallel = Ppst_parallel.Pool
module Message = Ppst_transport.Message
module Channel = Ppst_transport.Channel
module Retry = Ppst_transport.Retry
module Stats = Ppst_transport.Stats
module Wire = Ppst_transport.Wire
module Netsim = Ppst_transport.Netsim
module Telemetry = Ppst_telemetry.Telemetry
module Metrics = Ppst_telemetry.Metrics
module Rollup = Ppst_telemetry.Rollup
module Exposition = Ppst_telemetry.Exposition
