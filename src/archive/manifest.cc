#include "archive/manifest.hh"

#include <algorithm>

#include "archive/json_reader.hh"
#include "obs/json.hh"
#include "util/crc32.hh"

namespace dnastore::archive
{

namespace
{

std::uint32_t
crcOfString(const std::string &text)
{
    return crc32({reinterpret_cast<const std::uint8_t *>(text.data()),
                  text.size()});
}

void
writeShard(obs::JsonWriter &json, const ShardEntry &shard)
{
    json.beginObject();
    json.key("pair_id");
    json.value(std::uint64_t{shard.pair_id});
    json.key("size_bytes");
    json.value(std::uint64_t{shard.size_bytes});
    json.key("strands");
    json.value(std::uint64_t{shard.strands});
    json.key("units");
    json.value(std::uint64_t{shard.units});
    json.endObject();
}

void
writeObject(obs::JsonWriter &json, const ObjectEntry &object)
{
    json.beginObject();
    json.key("crc32");
    json.value(std::uint64_t{object.crc32_value});
    json.key("id");
    json.value(std::uint64_t{object.id});
    json.key("name");
    json.value(object.name);
    json.key("shards");
    json.beginArray();
    for (const ShardEntry &shard : object.shards)
        writeShard(json, shard);
    json.endArray();
    json.key("size_bytes");
    json.value(std::uint64_t{object.size_bytes});
    json.endObject();
}

void
writePayload(obs::JsonWriter &json, const ArchiveManifest &m)
{
    json.beginObject();
    json.key("objects");
    json.beginArray();
    for (const ObjectEntry &object : m.objects)
        writeObject(json, object);
    json.endArray();
    json.key("params");
    json.beginObject();
    json.key("codec");
    json.beginObject();
    json.key("index_nt");
    json.value(std::uint64_t{m.params.codec.index_nt});
    json.key("payload_nt");
    json.value(std::uint64_t{m.params.codec.payload_nt});
    json.key("randomizer_seed");
    json.value(std::uint64_t{m.params.codec.randomizer_seed});
    json.key("rs_k");
    json.value(std::uint64_t{m.params.codec.rs_k});
    json.key("rs_n");
    json.value(std::uint64_t{m.params.codec.rs_n});
    json.key("scheme");
    json.value(layoutSchemeName(m.params.codec.scheme));
    json.endObject();
    json.key("max_shard_bytes");
    json.value(std::uint64_t{m.params.max_shard_bytes});
    json.key("primer");
    json.beginObject();
    json.key("length");
    json.value(std::uint64_t{m.params.primer.length});
    json.key("max_gc");
    json.value(m.params.primer.max_gc);
    json.key("max_homopolymer");
    json.value(std::uint64_t{m.params.primer.max_homopolymer});
    json.key("min_gc");
    json.value(m.params.primer.min_gc);
    json.key("min_hamming");
    json.value(std::uint64_t{m.params.primer.min_hamming});
    json.endObject();
    json.key("primer_seed");
    json.value(std::uint64_t{m.params.primer_seed});
    json.endObject();
    json.endObject();
}

/** Fetch a required unsigned integer member. */
bool
readUint(const JsonValue &obj, std::string_view key, std::uint64_t &out,
         std::string &error)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr) {
        error = "missing field: " + std::string(key);
        return false;
    }
    const auto u = v->asUint();
    if (!u) {
        error = "field is not a non-negative integer: " + std::string(key);
        return false;
    }
    out = *u;
    return true;
}

bool
readDouble(const JsonValue &obj, std::string_view key, double &out,
           std::string &error)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr) {
        error = "missing field: " + std::string(key);
        return false;
    }
    const auto d = v->asDouble();
    if (!d) {
        error = "field is not a number: " + std::string(key);
        return false;
    }
    out = *d;
    return true;
}

bool
parseShard(const JsonValue &value, ShardEntry &shard, std::string &error)
{
    std::uint64_t pair_id = 0;
    std::uint64_t units = 0;
    std::uint64_t strands = 0;
    if (!readUint(value, "pair_id", pair_id, error) ||
        !readUint(value, "size_bytes", shard.size_bytes, error) ||
        !readUint(value, "strands", strands, error) ||
        !readUint(value, "units", units, error)) {
        return false;
    }
    if (pair_id == 0 || pair_id > 0xffffffffULL) {
        error = "shard pair_id out of range (0 is reserved)";
        return false;
    }
    shard.pair_id = static_cast<std::uint32_t>(pair_id);
    shard.units = static_cast<std::uint32_t>(units);
    shard.strands = static_cast<std::uint32_t>(strands);
    return true;
}

bool
parseObjectEntry(const JsonValue &value, ObjectEntry &object,
                 std::string &error)
{
    const std::string *name =
        value.find("name") ? value.find("name")->asString() : nullptr;
    if (name == nullptr) {
        error = "object entry lacks a string name";
        return false;
    }
    object.name = *name;
    std::uint64_t crc = 0;
    std::uint64_t id = 0;
    if (!readUint(value, "crc32", crc, error) ||
        !readUint(value, "id", id, error) ||
        !readUint(value, "size_bytes", object.size_bytes, error)) {
        return false;
    }
    if (crc > 0xffffffffULL || id > 0xffffffffULL) {
        error = "object crc32/id out of 32-bit range";
        return false;
    }
    object.crc32_value = static_cast<std::uint32_t>(crc);
    object.id = static_cast<std::uint32_t>(id);
    const JsonValue *shards = value.find("shards");
    const JsonValue::Array *items =
        shards != nullptr ? shards->asArray() : nullptr;
    if (items == nullptr) {
        error = "object entry lacks a shards array";
        return false;
    }
    for (const JsonValue &item : *items) {
        ShardEntry shard;
        if (!parseShard(item, shard, error))
            return false;
        object.shards.push_back(shard);
    }
    return true;
}

/**
 * Cross-field invariants, checked only once the CRC has vouched for the
 * bytes: corruption is then always reported as a CRC mismatch, and a
 * hand-edited manifest with a recomputed CRC still gets the structural
 * reason.
 */
bool
checkCrossFields(const ArchiveManifest &manifest, std::string &error)
{
    for (const ObjectEntry &object : manifest.objects) {
        std::uint64_t total = 0;
        for (const ShardEntry &shard : object.shards)
            total += shard.size_bytes;
        if (total != object.size_bytes) {
            error = "object '" + object.name +
                    "': shard sizes do not sum to size_bytes";
            return false;
        }
        if (manifest.findObject(object.name) != &object) {
            error = "duplicate object name: " + object.name;
            return false;
        }
    }

    // Pair-id guard: loaders size per-pair tables from nextPairId()
    // (= 1 + totalShards), so every shard's pair id must land in
    // [1, totalShards] and no two shards may share one — by pigeonhole
    // the ids are then exactly the contiguous block put() allocates.
    // A hand-edited manifest with a hole (say one shard at pair 7)
    // would otherwise index past those tables.
    std::vector<bool> used(manifest.totalShards() + 1, false);
    for (const ObjectEntry &object : manifest.objects) {
        for (const ShardEntry &shard : object.shards) {
            if (shard.pair_id >= used.size()) {
                error = "object '" + object.name + "': shard pair_id " +
                        std::to_string(shard.pair_id) +
                        " out of range for " +
                        std::to_string(manifest.totalShards()) +
                        " shard(s)";
                return false;
            }
            if (used[shard.pair_id]) {
                error = "primer pair " + std::to_string(shard.pair_id) +
                        " addresses two shards";
                return false;
            }
            used[shard.pair_id] = true;
        }
    }
    return true;
}

bool
parseParams(const JsonValue &value, ArchiveParams &params, std::string &error)
{
    const JsonValue *codec = value.find("codec");
    const JsonValue *primer = value.find("primer");
    if (codec == nullptr || !codec->isObject() || primer == nullptr ||
        !primer->isObject()) {
        error = "params lacks codec/primer sections";
        return false;
    }
    std::uint64_t payload_nt = 0;
    std::uint64_t index_nt = 0;
    std::uint64_t rs_n = 0;
    std::uint64_t rs_k = 0;
    if (!readUint(*codec, "index_nt", index_nt, error) ||
        !readUint(*codec, "payload_nt", payload_nt, error) ||
        !readUint(*codec, "randomizer_seed",
                  params.codec.randomizer_seed, error) ||
        !readUint(*codec, "rs_k", rs_k, error) ||
        !readUint(*codec, "rs_n", rs_n, error)) {
        return false;
    }
    params.codec.payload_nt = static_cast<std::size_t>(payload_nt);
    params.codec.index_nt = static_cast<std::size_t>(index_nt);
    params.codec.rs_n = static_cast<std::size_t>(rs_n);
    params.codec.rs_k = static_cast<std::size_t>(rs_k);
    const std::string *scheme =
        codec->find("scheme") ? codec->find("scheme")->asString() : nullptr;
    if (scheme == nullptr) {
        error = "codec lacks a scheme name";
        return false;
    }
    if (*scheme == "baseline") {
        params.codec.scheme = LayoutScheme::Baseline;
    } else if (*scheme == "gini") {
        params.codec.scheme = LayoutScheme::Gini;
    } else if (*scheme == "dnamapper") {
        params.codec.scheme = LayoutScheme::DNAMapper;
    } else {
        error = "unknown codec scheme: " + *scheme;
        return false;
    }

    std::uint64_t length = 0;
    std::uint64_t min_hamming = 0;
    std::uint64_t max_homopolymer = 0;
    if (!readUint(*primer, "length", length, error) ||
        !readDouble(*primer, "max_gc", params.primer.max_gc, error) ||
        !readUint(*primer, "max_homopolymer", max_homopolymer, error) ||
        !readDouble(*primer, "min_gc", params.primer.min_gc, error) ||
        !readUint(*primer, "min_hamming", min_hamming, error)) {
        return false;
    }
    params.primer.length = static_cast<std::size_t>(length);
    params.primer.min_hamming = static_cast<std::size_t>(min_hamming);
    params.primer.max_homopolymer =
        static_cast<std::size_t>(max_homopolymer);

    if (!readUint(value, "max_shard_bytes", params.max_shard_bytes,
                  error) ||
        !readUint(value, "primer_seed", params.primer_seed, error)) {
        return false;
    }
    if (params.max_shard_bytes == 0) {
        error = "max_shard_bytes must be positive";
        return false;
    }
    return true;
}

} // namespace

const ObjectEntry *
ArchiveManifest::findObject(std::string_view name) const
{
    const auto it = std::find_if(
        objects.begin(), objects.end(),
        [&name](const ObjectEntry &o) { return o.name == name; });
    return it == objects.end() ? nullptr : &*it;
}

std::uint32_t
ArchiveManifest::nextObjectId() const
{
    std::uint32_t next = 0;
    for (const ObjectEntry &object : objects)
        next = std::max(next, object.id + 1);
    return next;
}

std::size_t
ArchiveManifest::totalShards() const
{
    std::size_t total = 0;
    for (const ObjectEntry &object : objects)
        total += object.shards.size();
    return total;
}

std::uint32_t
ArchiveManifest::nextPairId() const
{
    return static_cast<std::uint32_t>(1 + totalShards());
}

std::string
manifestPayloadJson(const ArchiveManifest &m)
{
    obs::JsonWriter json;
    writePayload(json, m);
    return json.text();
}

std::string
manifestJson(const ArchiveManifest &m)
{
    const std::string payload = manifestPayloadJson(m);
    // JsonWriter has no raw-splice primitive, so the document is
    // assembled from canonical pieces by hand: the payload is itself
    // canonical JsonWriter output, and the guarded bytes are exactly
    // what tryParseManifest recomputes.
    std::string out = "{\"crc32\":";
    out += std::to_string(crcOfString(payload));
    out += ",\"payload\":";
    out += payload;
    out += ",\"schema\":\"dnastore.archive_manifest\",\"schema_version\":";
    out += std::to_string(kManifestSchemaVersion);
    out += "}";
    return out;
}

ManifestParseResult
tryParseManifest(std::string_view text)
{
    ManifestParseResult result;
    const auto doc = tryParseJson(text);
    if (!doc) {
        result.error = "manifest is not well-formed JSON";
        return result;
    }
    const JsonValue *schema = doc->find("schema");
    if (schema == nullptr || schema->asString() == nullptr ||
        *schema->asString() != "dnastore.archive_manifest") {
        result.error = "manifest schema is not dnastore.archive_manifest";
        return result;
    }
    std::uint64_t version = 0;
    if (!readUint(*doc, "schema_version", version, result.error))
        return result;
    if (version != std::uint64_t{kManifestSchemaVersion}) {
        result.error =
            "unsupported schema_version " + std::to_string(version);
        return result;
    }
    std::uint64_t stored_crc = 0;
    if (!readUint(*doc, "crc32", stored_crc, result.error))
        return result;
    const JsonValue *payload = doc->find("payload");
    if (payload == nullptr || !payload->isObject()) {
        result.error = "manifest lacks a payload object";
        return result;
    }

    ArchiveManifest manifest;
    const JsonValue *params = payload->find("params");
    if (params == nullptr || !params->isObject()) {
        result.error = "payload lacks a params object";
        return result;
    }
    if (!parseParams(*params, manifest.params, result.error))
        return result;
    const JsonValue *objects = payload->find("objects");
    const JsonValue::Array *items =
        objects != nullptr ? objects->asArray() : nullptr;
    if (items == nullptr) {
        result.error = "payload lacks an objects array";
        return result;
    }
    for (const JsonValue &item : *items) {
        ObjectEntry object;
        if (!parseObjectEntry(item, object, result.error))
            return result;
        manifest.objects.push_back(std::move(object));
    }

    // CRC guard: the canonical re-serialisation of what we parsed must
    // hash to the stored value, so silent corruption of any guarded
    // field (and any truncation) is caught here.
    const std::string canonical = manifestPayloadJson(manifest);
    if (crcOfString(canonical) != stored_crc) {
        result.error = "manifest payload CRC mismatch";
        return result;
    }
    if (!checkCrossFields(manifest, result.error))
        return result;
    result.manifest = std::move(manifest);
    return result;
}

} // namespace dnastore::archive
