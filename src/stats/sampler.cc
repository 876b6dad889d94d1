#include "stats/sampler.hh"

#include "common/logging.hh"
#include "snap/snapshot.hh"
#include "trace/json.hh"

namespace opac::stats
{

Sampler::Sampler(std::string name, const StatGroup &root, Cycle interval)
    : sim::Component(std::move(name)), root(root), _interval(interval)
{
    opac_assert(interval > 0, "sampler '%s' with zero interval",
                Component::name().c_str());
}

void
Sampler::tick(sim::Engine &engine)
{
    if (engine.now() % _interval == 0) {
        // Time statistics are credited when states change; bring them
        // up to the boundary first.
        engine.settle();
        snapshot(engine.now());
    }
}

void
Sampler::snapshot(Cycle now)
{
    if (!_samples.empty() && _samples.back().cycle == now)
        return;
    Sample s;
    s.cycle = now;
    s.values.reserve(_names.size());
    bool record_names = _names.empty();
    root.forEachScalar([&](const std::string &n, double v) {
        if (record_names)
            _names.push_back(n);
        s.values.push_back(v);
    });
    opac_assert(s.values.size() == _names.size(),
                "registry shape changed while sampling (%zu stats, "
                "expected %zu)", s.values.size(), _names.size());
    _samples.push_back(std::move(s));
}

double
Sampler::value(std::size_t idx, const std::string &name) const
{
    opac_assert(idx < _samples.size(), "sample index %zu out of range",
                idx);
    for (std::size_t i = 0; i < _names.size(); ++i) {
        if (_names[i] == name)
            return _samples[idx].values[i];
    }
    opac_panic("no sampled stat '%s'", name.c_str());
}

void
Sampler::saveState(snap::Writer &w) const
{
    w.u64(_interval);
    w.u32(std::uint32_t(_names.size()));
    for (const std::string &n : _names)
        w.str(n);
    w.u32(std::uint32_t(_samples.size()));
    for (const Sample &s : _samples) {
        w.u64(s.cycle);
        for (double v : s.values)
            w.f64(v);
    }
}

void
Sampler::loadState(snap::Reader &r, std::uint32_t version)
{
    (void)version;
    if (r.u64() != _interval)
        r.fail(name() + ": snapshot sampled at a different interval");
    _names.assign(r.u32(), {});
    for (std::string &n : _names)
        n = r.str();
    _samples.assign(r.u32(), {});
    for (Sample &s : _samples) {
        s.cycle = r.u64();
        s.values.resize(_names.size());
        for (double &v : s.values)
            v = r.f64();
    }
}

std::string
Sampler::statusLine() const
{
    return strfmt("interval=%llu samples=%zu",
                  (unsigned long long)_interval, _samples.size());
}

std::string
Sampler::json() const
{
    std::string out =
        strfmt("{\n\"interval\": %llu,\n\"names\": [",
               (unsigned long long)_interval);
    for (std::size_t i = 0; i < _names.size(); ++i) {
        out += strfmt("%s\"%s\"", i ? ", " : "",
                      trace::json::escape(_names[i]).c_str());
    }
    out += "],\n\"samples\": [\n";
    for (std::size_t i = 0; i < _samples.size(); ++i) {
        const Sample &s = _samples[i];
        out += strfmt("  [%llu", (unsigned long long)s.cycle);
        for (double v : s.values)
            out += strfmt(", %.9g", v);
        out += i + 1 < _samples.size() ? "],\n" : "]\n";
    }
    out += "]\n}";
    return out;
}

} // namespace opac::stats
