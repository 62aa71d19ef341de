#include "fault/engine.hpp"

#include "common/serialize.hpp"
#include "fault/sim_detail.hpp"
#include "store/artifact_store.hpp"

namespace sbst::fault {

store::ArtifactKey compiled_store_key(const netlist::Netlist& nl) {
  store::ArtifactKey key;
  key.kind = "compiled";
  key.version = netlist::CompiledNetlist::kSerialVersion;
  key.content = nl.content_hash();
  return key;
}

EngineContext::EngineContext(const netlist::Netlist& nl,
                             std::vector<netlist::NetId> observe,
                             const netlist::CompiledNetlist* compiled,
                             const std::uint8_t* reach,
                             store::ArtifactStore* store)
    : nl_(&nl), observe_(detail::resolve_observe(nl, observe)) {
  nl.topo_order();  // warm the shared cache before workers touch it
  if (compiled) {
    compiled_ = compiled;
  } else {
    const store::ArtifactKey key = compiled_store_key(nl);
    if (auto payload = store ? store->load(key) : std::nullopt) {
      common::ByteReader r(*payload);
      owned_compiled_ = netlist::CompiledNetlist::deserialize(nl, r);
    }
    if (!owned_compiled_) {
      owned_compiled_ = std::make_unique<netlist::CompiledNetlist>(nl);
      if (store) {
        common::ByteWriter w;
        owned_compiled_->serialize(w);
        store->save(key, w.bytes());
      }
    }
    compiled_ = owned_compiled_.get();
  }
  if (reach) {
    reach_ = reach;
  } else {
    reach_store_ = compiled_->fanin_cone(observe_);
    reach_ = reach_store_.data();
  }
}

}  // namespace sbst::fault
