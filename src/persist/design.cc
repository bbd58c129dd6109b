#include "persist/design.hh"

#include "persist/intel_engine.hh"
#include "persist/strand_engine.hh"

namespace strand
{

const char *
hwDesignName(HwDesign design)
{
    switch (design) {
      case HwDesign::IntelX86:
        return "intel-x86";
      case HwDesign::Hops:
        return "hops";
      case HwDesign::NoPersistQueue:
        return "no-persist-queue";
      case HwDesign::StrandWeaver:
        return "strandweaver";
      case HwDesign::NonAtomic:
        return "non-atomic";
    }
    return "?";
}

const char *
persistencyModelName(PersistencyModel model)
{
    switch (model) {
      case PersistencyModel::Txn:
        return "txn";
      case PersistencyModel::Sfr:
        return "sfr";
      case PersistencyModel::Atlas:
        return "atlas";
    }
    return "?";
}

std::unique_ptr<PersistEngine>
makePersistEngine(HwDesign design, std::string name, EventQueue &eq,
                  CoreId core, Hierarchy &hier,
                  const EngineConfig &config, stats::StatGroup *parent)
{
    auto build = [&]() -> std::unique_ptr<PersistEngine> {
        StrandEngineParams p;
        switch (design) {
          case HwDesign::IntelX86: {
            IntelEngineParams intel;
            intel.queueEntries = config.pqEntries;
            intel.adversary = config.adversary;
            intel.plantedEpochBug = config.plantedEpochBug;
            return std::make_unique<IntelEngine>(std::move(name), eq,
                                                 core, hier, intel,
                                                 parent);
          }
          case HwDesign::Hops:
            p = hopsParams();
            p.pqEntries = config.pqEntries;
            p.epochInterlock = config.hopsEpochInterlock;
            p.strictAdmission = config.hopsStrictAdmission;
            break;
          case HwDesign::NoPersistQueue:
            p = noPersistQueueParams();
            p.sbu.numBuffers = config.strandBuffers;
            p.sbu.entriesPerBuffer = config.entriesPerBuffer;
            break;
          case HwDesign::StrandWeaver:
          case HwDesign::NonAtomic:
            // The NON-ATOMIC upper bound runs on StrandWeaver
            // hardware; its stream simply omits the pairwise
            // log/update ordering.
            p = strandWeaverParams();
            p.pqEntries = config.pqEntries;
            p.sbu.numBuffers = config.strandBuffers;
            p.sbu.entriesPerBuffer = config.entriesPerBuffer;
            break;
          default:
            panic("unknown hardware design");
        }
        p.adversary = config.adversary;
        p.sbu.adversary = config.adversary;
        return std::make_unique<StrandEngine>(std::move(name), eq, core,
                                              hier, p, parent);
    };
    auto engine = build();
    engine->setRecordCompletions(config.recordCompletionTicks);
    return engine;
}

} // namespace strand
