#include "trace.hh"

#include <stdexcept>

namespace perfbench
{

std::map<std::string, SpanTotals>
spanTotals(const std::vector<Span> &spans)
{
    std::vector<double> childNs(spans.size(), 0.0);
    for (const Span &span : spans) {
        if (span.parent < 0)
            continue;
        if (static_cast<std::size_t>(span.parent) >= spans.size())
            throw std::out_of_range("span parent out of range");
        childNs[static_cast<std::size_t>(span.parent)] +=
            span.durationNs;
    }
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = totals[spans[i].name];
        ++t.count;
        t.selfNs += spans[i].durationNs - childNs[i];
    }
    return totals;
}

std::map<std::string, double>
layerSelfNs(const std::map<std::string, SpanTotals> &totals)
{
    std::map<std::string, double> layers;
    for (const auto &[name, t] : totals)
        layers[name.substr(0, name.find('.'))] += t.selfNs;
    return layers;
}

Tracer::Scope
Tracer::open(const char *name, int cell)
{
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1 : stack.back();
    span.cell = cell >= 0 || span.parent < 0
                    ? cell
                    : recorded[static_cast<std::size_t>(span.parent)].cell;
    span.startNs = nowNs();
    recorded.push_back(std::move(span));
    const int id = static_cast<int>(recorded.size() - 1);
    stack.push_back(id);
    return Scope(*this, id);
}

void
Tracer::addAggregate(const char *name, double durationNs)
{
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1 : stack.back();
    if (span.parent >= 0)
        span.cell = recorded[static_cast<std::size_t>(span.parent)].cell;
    span.startNs = nowNs();
    span.durationNs = durationNs;
    recorded.push_back(std::move(span));
}

void
Tracer::close(int id)
{
    // Scopes are block-scoped and uncopyable, so they close in stack
    // order, exceptions included.
    stack.pop_back();
    Span &span = recorded[static_cast<std::size_t>(id)];
    span.durationNs = nowNs() - span.startNs;
}

} // namespace perfbench
