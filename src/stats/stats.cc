#include "stats/stats.hh"

#include <algorithm>

#include "common/logging.hh"
#include "snap/snapshot.hh"
#include "trace/json.hh"

namespace opac::stats
{

void
Distribution::sample(double v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    _sum += v;
    ++_count;
}

void
Distribution::sample(double v, std::uint64_t n)
{
    if (n == 0)
        return;
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    _sum += v * double(n);
    _count += n;
}

void
Distribution::reset()
{
    _count = 0;
    _sum = _min = _max = 0.0;
}

void
Quantile::sample(double v)
{
    _samples.push_back(v);
    _sorted = _samples.size() <= 1;
    _sum += v;
}

namespace
{

const std::vector<double> &
sorted(std::vector<double> &samples, bool &flag)
{
    if (!flag) {
        std::sort(samples.begin(), samples.end());
        flag = true;
    }
    return samples;
}

} // anonymous namespace

double
Quantile::min() const
{
    return _samples.empty() ? 0.0 : sorted(_samples, _sorted).front();
}

double
Quantile::max() const
{
    return _samples.empty() ? 0.0 : sorted(_samples, _sorted).back();
}

double
Quantile::percentile(double p) const
{
    if (_samples.empty())
        return 0.0;
    const auto &s = sorted(_samples, _sorted);
    // Nearest rank: ceil(p/100 * n), clamped to [1, n], 1-based.
    double rank = p / 100.0 * double(s.size());
    std::size_t i = std::size_t(rank);
    if (double(i) < rank)
        ++i;
    if (i < 1)
        i = 1;
    if (i > s.size())
        i = s.size();
    return s[i - 1];
}

void
Quantile::reset()
{
    _samples.clear();
    _sorted = true;
    _sum = 0.0;
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : _name(std::move(name)), parent(parent)
{
    if (parent)
        parent->children.push_back(this);
}

StatGroup::~StatGroup()
{
    // Children may legally outlive the parent (member declaration
    // order); orphan them so their destructors do not touch us.
    for (auto *c : children)
        c->parent = nullptr;
    if (parent) {
        auto &sib = parent->children;
        sib.erase(std::remove(sib.begin(), sib.end(), this), sib.end());
    }
}

void
StatGroup::addCounter(const std::string &name, Counter *c,
                      const std::string &desc)
{
    opac_assert(c != nullptr, "null counter '%s'", name.c_str());
    counters[name] = CounterEntry{c, desc};
}

void
StatGroup::addWatermark(const std::string &name, Watermark *w,
                        const std::string &desc)
{
    opac_assert(w != nullptr, "null watermark '%s'", name.c_str());
    watermarks[name] = WatermarkEntry{w, desc};
}

void
StatGroup::addDistribution(const std::string &name, Distribution *d,
                           const std::string &desc)
{
    opac_assert(d != nullptr, "null distribution '%s'", name.c_str());
    dists[name] = DistEntry{d, desc};
}

void
StatGroup::addQuantile(const std::string &name, Quantile *q,
                       const std::string &desc)
{
    opac_assert(q != nullptr, "null quantile '%s'", name.c_str());
    quants[name] = QuantileEntry{q, desc};
}

void
StatGroup::addFormula(const std::string &name, Formula *f,
                      const std::string &desc)
{
    opac_assert(f != nullptr, "null formula '%s'", name.c_str());
    formulas[name] = FormulaEntry{f, desc};
}

void
StatGroup::dump(std::string &out, const std::string &prefix) const
{
    std::string base = prefix.empty() ? _name : prefix + "." + _name;
    auto line = [&](const std::string &n, const std::string &value,
                    const std::string &desc) {
        out += strfmt("%-48s %12s", (base + "." + n).c_str(),
                      value.c_str());
        if (!desc.empty())
            out += "  # " + desc;
        out += "\n";
    };
    for (const auto &[n, e] : counters) {
        line(n, strfmt("%llu",
                       (unsigned long long)e.counter->value()), e.desc);
    }
    for (const auto &[n, e] : watermarks) {
        line(n, strfmt("%llu", (unsigned long long)e.mark->value()),
             e.desc);
    }
    for (const auto &[n, e] : dists) {
        out += strfmt("%-48s min=%.2f max=%.2f mean=%.2f n=%llu",
                      (base + "." + n).c_str(), e.dist->min(),
                      e.dist->max(), e.dist->mean(),
                      static_cast<unsigned long long>(e.dist->count()));
        if (!e.desc.empty())
            out += "  # " + e.desc;
        out += "\n";
    }
    for (const auto &[n, e] : quants) {
        out += strfmt("%-48s p50=%.2f p95=%.2f p99=%.2f n=%llu",
                      (base + "." + n).c_str(), e.quant->p50(),
                      e.quant->p95(), e.quant->p99(),
                      static_cast<unsigned long long>(e.quant->count()));
        if (!e.desc.empty())
            out += "  # " + e.desc;
        out += "\n";
    }
    for (const auto &[n, e] : formulas)
        line(n, strfmt("%.6f", e.formula->value()), e.desc);
    for (const auto *c : children)
        c->dump(out, base);
}

void
StatGroup::jsonMembers(std::string &out, const std::string &prefix,
                       bool &first) const
{
    std::string base = prefix.empty() ? _name : prefix + "." + _name;
    auto member = [&](const std::string &n, const std::string &value) {
        if (!first)
            out += ",\n";
        first = false;
        out += strfmt("  \"%s\": %s",
                      trace::json::escape(base + "." + n).c_str(),
                      value.c_str());
    };
    for (const auto &[n, e] : counters) {
        member(n, strfmt("%llu",
                         (unsigned long long)e.counter->value()));
    }
    for (const auto &[n, e] : watermarks)
        member(n, strfmt("%llu", (unsigned long long)e.mark->value()));
    for (const auto &[n, e] : dists) {
        member(n, strfmt("{\"min\": %.9g, \"max\": %.9g, "
                         "\"mean\": %.9g, \"count\": %llu}",
                         e.dist->min(), e.dist->max(), e.dist->mean(),
                         (unsigned long long)e.dist->count()));
    }
    for (const auto &[n, e] : quants) {
        member(n, strfmt("{\"count\": %llu, \"min\": %.9g, "
                         "\"max\": %.9g, \"mean\": %.9g, "
                         "\"p50\": %.9g, \"p95\": %.9g, \"p99\": %.9g}",
                         (unsigned long long)e.quant->count(),
                         e.quant->min(), e.quant->max(),
                         e.quant->mean(), e.quant->p50(),
                         e.quant->p95(), e.quant->p99()));
    }
    for (const auto &[n, e] : formulas)
        member(n, strfmt("%.9g", e.formula->value()));
    for (const auto *c : children)
        c->jsonMembers(out, base, first);
}

std::string
StatGroup::json() const
{
    std::string out = "{\n";
    bool first = true;
    jsonMembers(out, "", first);
    out += "\n}";
    return out;
}

void
StatGroup::resetAll()
{
    for (auto &[n, e] : counters)
        e.counter->reset();
    for (auto &[n, e] : watermarks)
        e.mark->reset();
    for (auto &[n, e] : dists)
        e.dist->reset();
    for (auto &[n, e] : quants)
        e.quant->reset();
    for (auto *c : children)
        c->resetAll();
}

std::uint64_t
StatGroup::counterValue(const std::string &path) const
{
    // Counter names may themselves contain dots (e.g. "tpx.pushes"), so
    // prefer an exact match in this group before descending.
    if (auto it = counters.find(path); it != counters.end())
        return it->second.counter->value();

    auto dot = path.find('.');
    if (dot == std::string::npos) {
        opac_panic("no counter '%s' in group '%s'", path.c_str(),
                   _name.c_str());
    }
    std::string head = path.substr(0, dot);
    std::string rest = path.substr(dot + 1);
    for (const auto *c : children) {
        if (c->name() == head)
            return c->counterValue(rest);
    }
    opac_panic("no child group '%s' in group '%s'", head.c_str(),
               _name.c_str());
}

double
StatGroup::scalarValue(const std::string &path) const
{
    if (auto it = counters.find(path); it != counters.end())
        return double(it->second.counter->value());
    if (auto it = watermarks.find(path); it != watermarks.end())
        return double(it->second.mark->value());
    if (auto it = formulas.find(path); it != formulas.end())
        return it->second.formula->value();

    auto dot = path.find('.');
    if (dot == std::string::npos) {
        opac_panic("no scalar stat '%s' in group '%s'", path.c_str(),
                   _name.c_str());
    }
    std::string head = path.substr(0, dot);
    std::string rest = path.substr(dot + 1);
    for (const auto *c : children) {
        if (c->name() == head)
            return c->scalarValue(rest);
    }
    opac_panic("no child group '%s' in group '%s'", head.c_str(),
               _name.c_str());
}

const StatGroup *
StatGroup::findChild(const std::string &name) const
{
    for (const auto *c : children) {
        if (c->name() == name)
            return c;
    }
    return nullptr;
}

void
StatGroup::forEachScalar(
    const std::function<void(const std::string &, double)> &fn,
    const std::string &prefix) const
{
    std::string base = prefix.empty() ? _name : prefix + "." + _name;
    for (const auto &[n, e] : counters)
        fn(base + "." + n, double(e.counter->value()));
    for (const auto &[n, e] : watermarks)
        fn(base + "." + n, double(e.mark->value()));
    for (const auto &[n, e] : formulas)
        fn(base + "." + n, e.formula->value());
    for (const auto *c : children)
        c->forEachScalar(fn, base);
}

void
StatGroup::forEachQuantile(
    const std::function<void(const std::string &, const Quantile &)> &fn,
    const std::string &prefix) const
{
    std::string base = prefix.empty() ? _name : prefix + "." + _name;
    for (const auto &[n, e] : quants)
        fn(base + "." + n, *e.quant);
    for (const auto *c : children)
        c->forEachQuantile(fn, base);
}

// ------------------------------------------------------- serialization

void
Counter::saveState(snap::Writer &w) const
{
    w.u64(_value);
}

void
Counter::loadState(snap::Reader &r)
{
    _value = r.u64();
}

void
Watermark::saveState(snap::Writer &w) const
{
    w.u64(_max);
}

void
Watermark::loadState(snap::Reader &r)
{
    _max = r.u64();
}

void
Distribution::saveState(snap::Writer &w) const
{
    w.u64(_count);
    w.f64(_sum);
    w.f64(_min);
    w.f64(_max);
}

void
Distribution::loadState(snap::Reader &r)
{
    _count = r.u64();
    _sum = r.f64();
    _min = r.f64();
    _max = r.f64();
}

void
Quantile::saveState(snap::Writer &w) const
{
    // The raw sample order matters: resumed runs keep appending, and
    // byte-identity of the exported quantile summaries only needs the
    // multiset — but the insertion-ordered vector also preserves the
    // lazily-sorted flag semantics exactly.
    w.u64(_samples.size());
    for (double v : _samples)
        w.f64(v);
    w.b(_sorted);
    w.f64(_sum);
}

void
Quantile::loadState(snap::Reader &r)
{
    _samples.resize(r.u64());
    for (double &v : _samples)
        v = r.f64();
    _sorted = r.b();
    _sum = r.f64();
}

void
StatGroup::saveState(snap::Writer &w) const
{
    w.str(_name);
    auto kind = [&w](const auto &entries, auto member) {
        w.u32(static_cast<std::uint32_t>(entries.size()));
        for (const auto &[n, e] : entries) {
            w.str(n);
            (e.*member)->saveState(w);
        }
    };
    kind(counters, &CounterEntry::counter);
    kind(watermarks, &WatermarkEntry::mark);
    kind(dists, &DistEntry::dist);
    kind(quants, &QuantileEntry::quant);
    w.u32(static_cast<std::uint32_t>(children.size()));
    for (const StatGroup *c : children)
        c->saveState(w);
}

void
StatGroup::loadState(snap::Reader &r)
{
    std::string name = r.str();
    if (name != _name)
        r.fail("stats tree mismatch: snapshot group '" + name +
               "', this machine has '" + _name + "'");
    auto kind = [&r, this](auto &entries, auto member,
                           const char *what) {
        std::uint32_t n = r.u32();
        if (n != entries.size())
            r.fail("stats group '" + _name + "': snapshot has " +
                   std::to_string(n) + " " + what +
                   " entries, this machine registered " +
                   std::to_string(entries.size()));
        for (auto &[en, e] : entries) {
            std::string sn = r.str();
            if (sn != en)
                r.fail("stats group '" + _name + "': snapshot " +
                       what + " '" + sn + "' does not match '" + en +
                       "'");
            (e.*member)->loadState(r);
        }
    };
    kind(counters, &CounterEntry::counter, "counter");
    kind(watermarks, &WatermarkEntry::mark, "watermark");
    kind(dists, &DistEntry::dist, "distribution");
    kind(quants, &QuantileEntry::quant, "quantile");
    std::uint32_t nchild = r.u32();
    if (nchild != children.size())
        r.fail("stats group '" + _name + "': snapshot has " +
               std::to_string(nchild) +
               " child groups, this machine has " +
               std::to_string(children.size()));
    for (StatGroup *c : children)
        c->loadState(r);
}

} // namespace opac::stats
