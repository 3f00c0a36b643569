// Streaming updates end-to-end: replay a mobility contact trace and an
// edge-Markovian churn sequence through the stream engine, let the
// observers maintain their structures incrementally, and query them —
// no from-scratch recomputation anywhere on the hot path.
#include <iostream>

#include "core/generators.hpp"
#include "layering/nsf.hpp"
#include "mobility/edge_markovian.hpp"
#include "mobility/mobility_models.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "stream/replay.hpp"

using namespace structnet;

int main() {
  Rng rng(2026);

  // --- 1. Structural churn: an edge-Markovian process as a diff stream.
  EdgeMarkovianParams churn;
  churn.nodes = 256;
  churn.horizon = 64;
  const TemporalGraph markovian = edge_markovian_graph(churn, rng);
  const auto structural = snapshot_edge_events(markovian);

  StreamEngine engine{DynamicGraph(churn.nodes)};
  CoreObserver cores(0.5);
  MisObserver mis(7);
  engine.attach(&cores);
  engine.attach(&mis);

  const ReplayStats s1 = replay(engine, structural, /*batch_size=*/64);
  std::cout << "edge-Markovian replay: " << s1.events << " events in "
            << s1.batches << " batches, " << s1.accepted << " accepted\n";

  const auto members = cores.nsf_members(engine.graph());
  std::size_t member_count = 0;
  for (const bool m : members) member_count += m;
  std::cout << "incremental core tracker: " << member_count << "/"
            << engine.graph().alive_count()
            << " vertices in the NSF core view (repair work: " << cores.work()
            << " touches over " << s1.accepted << " events)\n";

  std::size_t mis_size = 0;
  for (VertexId v = 0; v < engine.graph().vertex_count(); ++v) {
    mis_size += mis.in_mis(v);
  }
  std::cout << "incremental MIS: " << mis_size
            << " vertices, invariant holds: "
            << (mis.mis().verify() ? "yes" : "NO")
            << " (adjustments: " << mis.work() << ")\n";

  // A materialized Graph is a copy: freeze the current epoch, keep
  // streaming, and the copy still holds the frozen graph.
  const std::uint64_t frozen_epoch = engine.graph().epoch();
  const Graph frozen = engine.graph().materialize();
  engine.apply(Event::edge_insert(0, 1));
  engine.apply(Event::edge_delete(0, 1));
  std::cout << "snapshot at epoch " << frozen_epoch << " still has "
            << frozen.edge_count() << " edges (live epoch "
            << engine.graph().epoch() << ")\n";

  // --- 2. Temporal view: a random-waypoint contact trace streamed in.
  RandomWaypointParams mob;
  mob.nodes = 96;
  mob.steps = 48;
  const auto trajectory = random_waypoint(mob, rng);
  const auto contacts = trajectory_events(trajectory, 0.08);

  StreamEngine temporal_engine{DynamicGraph(mob.nodes)};
  TemporalViewObserver view(mob.nodes, static_cast<TimeUnit>(mob.steps));
  temporal_engine.attach(&view);
  const ReplayStats s2 = replay(temporal_engine, contacts, 128);
  std::cout << "contact replay: " << s2.accepted << "/" << s2.events
            << " contacts into the temporal view ("
            << view.view().edge_count() << " labeled edges)\n";

  // The trimmed view is computed lazily, cached, and invalidated by the
  // next mutation.
  const TrimResult& trimmed = view.trimmed();
  std::cout << "lazy trimmed view: removed " << trimmed.removed_nodes.size()
            << " nodes (cache valid: "
            << (view.trim_cache_valid() ? "yes" : "no") << ")\n";
  temporal_engine.apply(Event::contact_add(0, 1, 0));
  std::cout << "after one more contact, cache valid: "
            << (view.trim_cache_valid() ? "yes" : "no") << "\n";
  return 0;
}
