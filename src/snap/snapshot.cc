#include "snap/snapshot.hh"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

namespace opac::snap
{

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t value)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; i++)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    return fnv1a(bytes, 8, hash);
}

// ---------------------------------------------------------------- Writer

void
Writer::putLe(std::uint64_t v, int n)
{
    char le[8] = {};
    for (int i = 0; i < n; i++)
        le[i] = static_cast<char>(v >> (8 * i));
    _buf.append(le, static_cast<std::size_t>(n));
}

void
Writer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Writer::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    _buf.append(s);
}

void
Writer::bytes(const void *data, std::size_t len)
{
    _buf.append(static_cast<const char *>(data), len);
}

// ---------------------------------------------------------------- Reader

void
Reader::need(std::size_t n) const
{
    if (_data.size() - _pos < n)
        throw SnapshotError(
            _site, "section payload truncated: need " +
                       std::to_string(n) + " bytes at offset " +
                       std::to_string(_pos) + " of " +
                       std::to_string(_data.size()));
}

std::uint8_t
Reader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(_data[_pos++]);
}

std::uint64_t
Reader::getLe(int n)
{
    need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; i++)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(_data[_pos + i]))
             << (8 * i);
    _pos += static_cast<std::size_t>(n);
    return v;
}

double
Reader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
Reader::str()
{
    std::size_t len = u32();
    need(len);
    std::string s = _data.substr(_pos, len);
    _pos += len;
    return s;
}

void
Reader::bytes(void *out, std::size_t len)
{
    need(len);
    _data.copy(static_cast<char *>(out), len, _pos);
    _pos += len;
}

void
Reader::expectEnd() const
{
    if (!atEnd())
        throw SnapshotError(
            _site, std::to_string(remaining()) +
                       " trailing bytes after decoding the section "
                       "payload (schema mismatch)");
}

void
Reader::fail(const std::string &what) const
{
    throw SnapshotError(_site, what);
}

// -------------------------------------------------------------- Snapshot

void
Snapshot::add(std::string name, std::uint32_t version,
              std::string payload)
{
    _sections.push_back(
        Section{std::move(name), version, std::move(payload)});
}

const Section *
Snapshot::find(const std::string &name) const
{
    for (const Section &s : _sections)
        if (s.name == name)
            return &s;
    return nullptr;
}

const Section &
Snapshot::require(const std::string &name) const
{
    const Section *s = find(name);
    if (!s)
        throw SnapshotError("snapshot",
                            "missing section '" + name + "'");
    return *s;
}

std::string
Snapshot::encode() const
{
    std::unordered_set<std::string> seen;
    for (const Section &s : _sections)
        if (!seen.insert(s.name).second)
            throw SnapshotError("snapshot", "duplicate section '" +
                                                s.name + "'");

    Writer w;
    w.u64(magic);
    w.u32(formatVersion);
    w.u64(cycle);
    w.u64(fingerprint);
    w.u32(static_cast<std::uint32_t>(_sections.size()));
    for (const Section &s : _sections) {
        w.str(s.name);
        w.u32(s.version);
        w.u64(s.payload.size());
        w.bytes(s.payload.data(), s.payload.size());
    }
    std::uint64_t sum = fnv1a(w.buffer().data(), w.buffer().size());
    w.u64(sum);
    return w.take();
}

Snapshot
Snapshot::decode(const std::string &bytes, const std::string &site)
{
    if (bytes.size() < 8 + 4 + 8 + 8 + 4 + 8)
        throw SnapshotError(site, "snapshot truncated (" +
                                      std::to_string(bytes.size()) +
                                      " bytes)");
    // Verify the checksum over everything before the 8-byte footer
    // first: any subsequent parse error is then a genuine schema
    // problem, not random corruption.
    std::string body = bytes.substr(0, bytes.size() - 8);
    {
        std::string footer = bytes.substr(bytes.size() - 8);
        Reader f(footer, site);
        std::uint64_t want = f.u64();
        std::uint64_t got = fnv1a(body.data(), body.size());
        if (want != got)
            throw SnapshotError(
                site, "snapshot checksum mismatch (file corrupt or "
                      "truncated mid-write)");
    }

    Reader r(body, site);
    if (r.u64() != magic)
        throw SnapshotError(site, "not an OPAC snapshot (bad magic)");
    std::uint32_t ver = r.u32();
    if (ver != formatVersion)
        throw SnapshotError(
            site, "unsupported snapshot format version " +
                      std::to_string(ver) + " (this build reads " +
                      std::to_string(formatVersion) + ")");
    Snapshot snap;
    snap.cycle = r.u64();
    snap.fingerprint = r.u64();
    std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; i++) {
        Section s;
        s.name = r.str();
        s.version = r.u32();
        std::uint64_t len = r.u64();
        if (len > r.remaining())
            throw SnapshotError(
                site, "section '" + s.name + "' payload (" +
                          std::to_string(len) +
                          " bytes) overruns the file");
        s.payload.resize(static_cast<std::size_t>(len));
        if (len)
            r.bytes(s.payload.data(),
                    static_cast<std::size_t>(len));
        snap._sections.push_back(std::move(s));
    }
    r.expectEnd();
    return snap;
}

void
Snapshot::writeFile(const std::string &path) const
{
    ensureParentDir(path);
    std::string data = encode();
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw SnapshotError(path, "cannot open temp file '" +
                                          tmp + "' for writing");
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        out.flush();
        if (!out)
            throw SnapshotError(path, "short write to '" + tmp + "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        throw SnapshotError(path, "rename from '" + tmp +
                                      "' failed: " + ec.message());
}

Snapshot
Snapshot::readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError(path, "cannot open snapshot file");
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        throw SnapshotError(path, "read error");
    return decode(bytes, path);
}

// ------------------------------------------------------------- dirs

void
ensureDirectories(const std::string &dir)
{
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw SnapshotError(dir, "cannot create directory: " +
                                     ec.message());
}

void
ensureParentDir(const std::string &path)
{
    std::filesystem::path p(path);
    if (p.has_parent_path())
        ensureDirectories(p.parent_path().string());
}

} // namespace opac::snap
