/**
 * @file
 * Report emission and equivalence. Each record kind declares its
 * columns once; one CSV writer and one JSON writer walk the lists.
 */
#include "core/report.h"

#include <ostream>

#include "backend/serialize.h"
#include "support/binio.h"
#include "support/util.h"

namespace stos::core {

namespace {

//---------------------------------------------------------------------
// Columns
//---------------------------------------------------------------------

/** One cell value; its kind decides the CSV and JSON spelling. */
struct Value {
    enum Kind {
        Text,   ///< CSV-quoted / JSON string
        Flag,   ///< 1|0 / true|false
        Number, ///< the same digits in both
        Json,   ///< raw JSON (JSON-only columns)
    } kind;
    std::string s;
};

Value text(const std::string &s) { return {Value::Text, s}; }
Value flag(bool b) { return {Value::Flag, b ? "1" : "0"}; }
Value num(uint64_t v) { return {Value::Number, std::to_string(v)}; }
Value millis(double v) { return {Value::Number, strfmt("%.3f", v)}; }

/**
 * One row of any table: a cell's identity plus its build, its
 * simulation, or both (the joined table takes identity from the sim).
 */
struct Row {
    const CellId *id;
    const BuildRecord *b;
    const SimRecord *s;
};

enum class Only { Both, Csv, Json };

/**
 * One report column: its name, the value of one row's cell, and when
 * that cell is present (always, if null). An absent cell is an empty
 * CSV cell and no JSON key.
 */
struct Column {
    std::string name;
    std::function<Value(const Row &)> value;
    bool (*present)(const Row &) = nullptr;
    Only only = Only::Both;
};
using Columns = std::vector<Column>;

Columns
operator+(Columns a, const Columns &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/**
 * The report's name of a per-stage counter or flag: `<stage>_<what>`,
 * except that the frontend's runs are its `parses`.
 */
std::string
stageKey(Stage s, const std::string &what)
{
    return std::string(stageName(s)) + "_" +
           (s == Stage::Frontend && what == "runs" ? "parses" : what);
}

bool built(const Row &r) { return r.b->ok; }
bool simulated(const Row &r) { return r.s->ok; }
bool simFailed(const Row &r) { return !r.s->ok; }

template <auto F> Value size(const Row &r) { return num((*r.b->result).*F); }
template <auto F> Value count(const Row &r) { return num(r.s->outcome.*F); }
template <auto F> Value bit(const Row &r) { return flag(r.s->outcome.*F); }
template <auto F>
Value
ratio(const Row &r)
{
    return {Value::Number, strfmt("%.9f", r.s->outcome.*F)};
}

Value
trapLog(const Row &r)
{
    const auto &log = r.s->outcome.trapLog;
    std::string s = "[";
    for (size_t i = 0; i < log.size(); ++i)
        s += strfmt("%s{\"flid\": %u, \"cycle\": %llu, \"pc\": %u"
                    ", \"kind\": %u}",
                    i ? ", " : "", log[i].flid,
                    static_cast<unsigned long long>(log[i].cycle),
                    log[i].pc, static_cast<unsigned>(log[i].kind));
    return {Value::Json, s + "]"};
}

/** The cell identity every table starts with. */
const Columns kIdentity = {
    {"app", [](const Row &r) { return text(r.id->app); }},
    {"platform", [](const Row &r) { return text(r.id->platform); }},
    {"config", [](const Row &r) { return text(r.id->config); }},
    {"app_index", [](const Row &r) { return num(r.id->appIndex); }},
    {"config_index", [](const Row &r) { return num(r.id->configIndex); }},
};

/** The static sizes of a built cell (build and joined tables). */
const Columns kSizes = {
    {"code_bytes", size<&BuildResult::codeBytes>, built},
    {"ram_bytes", size<&BuildResult::ramBytes>, built},
    {"rom_data_bytes", size<&BuildResult::romDataBytes>, built},
    {"surviving_checks", size<&BuildResult::survivingChecks>, built},
};

/** The dynamic counters of a simulated cell (sim and joined tables). */
const Columns kOutcome = {
    {"duty_cycle", ratio<&SimOutcome::dutyCycle>, simulated},
    {"awake_cycles", count<&SimOutcome::awakeCycles>, simulated},
    {"total_cycles", count<&SimOutcome::totalCycles>, simulated},
    {"instructions", count<&SimOutcome::instructions>, simulated},
    {"halted", bit<&SimOutcome::halted>, simulated},
    {"wedged", bit<&SimOutcome::wedged>, simulated},
    {"failed_flid", count<&SimOutcome::failedFlid>, simulated},
    {"traps", count<&SimOutcome::traps>, simulated},
    {"cfi_traps", count<&SimOutcome::cfiTraps>, simulated},
    {"reboots", count<&SimOutcome::reboots>, simulated},
    {"crashes", count<&SimOutcome::crashes>, simulated},
    {"down_cycles", count<&SimOutcome::downCycles>, simulated},
    {"wedged_cycles", count<&SimOutcome::wedgedCycles>, simulated},
    {"availability", ratio<&SimOutcome::availability>, simulated},
    {"packets_dropped", count<&SimOutcome::packetsDropped>, simulated},
    {"packets_corrupted", count<&SimOutcome::packetsCorrupted>, simulated},
    {"packets_duplicated", count<&SimOutcome::packetsDuplicated>,
     simulated},
    {"trap_log", trapLog, simulated, Only::Json},
    {"uart_bytes",
     [](const Row &r) { return num(r.s->outcome.uartLog.size()); },
     simulated},
};

/** One `<stage>_reused` flag per stage of a built cell. */
Columns
reusedColumns()
{
    Columns cols;
    for (Stage s : kStages)
        cols.push_back({stageKey(s, "reused"), [s](const Row &r) {
                            return flag(r.b->reused[s]);
                        }});
    return cols;
}

const Columns kBuildTable =
    kIdentity +
    Columns{
        {"ok", [](const Row &r) { return flag(r.b->ok); }},
        {"error", [](const Row &r) { return text(r.b->error); }},
    } +
    reusedColumns() + kSizes +
    Columns{
        {"checks_inserted",
         [](const Row &r) {
             return num(r.b->result->safetyReport.checksInserted);
         },
         built},
        {"cxprop_checks_removed",
         [](const Row &r) {
             return num(r.b->result->cxpropReport.checksRemoved);
         },
         built},
        {"millis", [](const Row &r) { return millis(r.b->millis); }},
    };

const Columns kSimTable =
    kIdentity +
    Columns{
        {"ok", [](const Row &r) { return flag(r.s->ok); }},
        {"error", [](const Row &r) { return text(r.s->error); }},
    } +
    kOutcome +
    Columns{
        {"companions_reused",
         [](const Row &r) { return flag(r.s->companionsReused); }},
        {"millis", [](const Row &r) { return millis(r.s->millis); }},
    };

/**
 * Identity, then the build columns, then the sim columns. A failed
 * simulation's error sits before code_bytes in CSV but after the
 * build fields in JSON, hence the two one-sided error columns.
 */
const Columns kJoinedTable =
    kIdentity +
    Columns{
        {"build_ok", [](const Row &r) { return flag(r.b->ok); }},
        {"sim_ok", [](const Row &r) { return flag(r.s->ok); }},
        {"error",
         [](const Row &r) {
             return text(r.s->ok ? std::string() : r.s->error);
         },
         nullptr, Only::Csv},
    } +
    kSizes + kOutcome +
    Columns{
        {"error", [](const Row &r) { return text(r.s->error); },
         simFailed, Only::Json},
        {"build_millis", [](const Row &r) { return millis(r.b->millis); }},
        {"sim_millis", [](const Row &r) { return millis(r.s->millis); }},
    };

//---------------------------------------------------------------------
// Writers
//---------------------------------------------------------------------

std::vector<Row>
rowsOf(const BuildReport &b)
{
    std::vector<Row> rows;
    for (const auto &r : b.records)
        rows.push_back({&r, &r, nullptr});
    return rows;
}

std::vector<Row>
rowsOf(const SimReport &s)
{
    std::vector<Row> rows;
    for (const auto &r : s.records)
        rows.push_back({&r, nullptr, &r});
    return rows;
}

/** The joined rows, after checking both describe the same cells. */
std::vector<Row>
rowsOf(const BuildReport &builds, const SimReport &sims)
{
    if (builds.numApps != sims.numApps ||
        builds.numConfigs != sims.numConfigs ||
        builds.records.size() != sims.records.size())
        throw FatalError("joined reports have different shapes");
    std::vector<Row> rows;
    for (size_t i = 0; i < sims.records.size(); ++i) {
        const BuildRecord &b = builds.records[i];
        const SimRecord &s = sims.records[i];
        if (b.app != s.app || b.platform != s.platform ||
            b.config != s.config)
            throw FatalError("joined reports describe different cells: " +
                             b.app + "/" + b.config + " vs " + s.app +
                             "/" + s.config);
        rows.push_back({&s, &b, &s});
    }
    return rows;
}

void
writeCsv(std::ostream &os, const Columns &cols,
         const std::vector<Row> &rows)
{
    const char *sep = "";
    for (const Column &c : cols) {
        if (c.only != Only::Json) {
            os << sep << c.name;
            sep = ",";
        }
    }
    os << '\n';
    for (const Row &r : rows) {
        sep = "";
        for (const Column &c : cols) {
            if (c.only == Only::Json)
                continue;
            os << sep;
            sep = ",";
            if (c.present && !c.present(r))
                continue;
            Value v = c.value(r);
            os << (v.kind == Value::Text ? csvField(v.s) : v.s);
        }
        os << '\n';
    }
}

/** `  "name": value,` — one top-level JSON field. */
std::string
field(const std::string &name, const std::string &value)
{
    return strfmt("  \"%s\": %s,\n", name.c_str(), value.c_str());
}

std::string
field(const std::string &name, uint64_t value)
{
    return field(name, std::to_string(value));
}

/** The shape fields every report's JSON opens with. */
template <typename Record>
std::string
shapeFields(const char *kind, const MatrixReport<Record> &m)
{
    return field("kind", strfmt("\"%s\"", kind)) +
           field("num_apps", m.numApps) +
           field("num_configs", m.numConfigs);
}

/** The stage-graph and artifact-store counters of a build phase. */
std::string
stageCounterFields(const BuildReport &b)
{
    std::string s;
    for (Stage st : kStages)
        s += field(stageKey(st, "runs"), b.stages[st].runs) +
             field(stageKey(st, "reuses"), b.stages[st].reuses);
    s += field("stage_reuses", b.stageReuses());
    // A warmed --cache-dir run shows every *_runs above as 0 with the
    // work accounted for here instead.
    for (Stage st : kStages)
        s += field(stageKey(st, "disk_hits"), b.stages[st].diskHits);
    return s + field("disk_hits", b.diskHits()) +
           field("cache_bytes_read", b.cacheBytesRead) +
           field("cache_bytes_written", b.cacheBytesWritten);
}

/** `fields` (from field()), then one object per row. */
void
writeJson(std::ostream &os, const std::string &fields,
          const Columns &cols, const std::vector<Row> &rows)
{
    os << "{\n" << fields << "  \"records\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        os << "    {";
        const char *sep = "";
        for (const Column &c : cols) {
            if (c.only == Only::Csv || (c.present && !c.present(rows[i])))
                continue;
            Value v = c.value(rows[i]);
            os << sep << '"' << c.name << "\": ";
            sep = ", ";
            if (v.kind == Value::Text)
                os << '"' << jsonEscape(v.s) << '"';
            else if (v.kind == Value::Flag)
                os << (v.s == "1" ? "true" : "false");
            else
                os << v.s;
        }
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace

//---------------------------------------------------------------------
// BuildReport / SimReport
//---------------------------------------------------------------------

std::string
BuildReport::summary() const
{
    std::string runs, disk;
    for (Stage st : kStages) {
        const char *sep = st == Stage::Frontend ? "" : ", ";
        runs += strfmt("%s%s %zu/%zu", sep, stageName(st),
                       stages[st].runs, stages[st].reuses);
        disk += strfmt("%s%s %zu", sep, stageName(st),
                       stages[st].diskHits);
    }
    std::string s =
        strfmt("%zu apps x %zu configs = %zu builds in %.0f ms "
               "(%u jobs; stage runs/reuses: %s)",
               numApps, numConfigs, records.size(), wallMillis,
               jobsUsed, runs.c_str());
    if (diskHits() > 0 || cacheBytesWritten > 0)
        s += strfmt(" (disk hits: %s; %llu KiB read, %llu KiB written)",
                    disk.c_str(),
                    static_cast<unsigned long long>(cacheBytesRead /
                                                    1024),
                    static_cast<unsigned long long>(cacheBytesWritten /
                                                    1024));
    return s;
}

void
BuildReport::emitCsv(std::ostream &os) const
{
    writeCsv(os, kBuildTable, rowsOf(*this));
}

void
BuildReport::emitJson(std::ostream &os) const
{
    writeJson(os,
              shapeFields("build_report", *this) +
                  field("jobs_used", jobsUsed) +
                  stageCounterFields(*this) +
                  field("wall_millis", strfmt("%.3f", wallMillis)),
              kBuildTable, rowsOf(*this));
}

std::string
SimReport::summary() const
{
    return strfmt("%zu apps x %zu configs = %zu simulations of %gs "
                  "in %.0f ms (%u jobs, %zu companion builds, "
                  "%zu companion reuses)",
                  numApps, numConfigs, records.size(), seconds,
                  wallMillis, jobsUsed, companionBuilds,
                  companionReuses);
}

void
SimReport::emitCsv(std::ostream &os) const
{
    writeCsv(os, kSimTable, rowsOf(*this));
}

void
SimReport::emitJson(std::ostream &os) const
{
    writeJson(os,
              shapeFields("sim_report", *this) +
                  field("seconds", strfmt("%g", seconds)) +
                  field("jobs_used", jobsUsed) +
                  field("companion_builds", companionBuilds) +
                  field("companion_reuses", companionReuses) +
                  field("wall_millis", strfmt("%.3f", wallMillis)),
              kSimTable, rowsOf(*this));
}

void
SimReport::joinCsv(const BuildReport &builds, std::ostream &os) const
{
    writeCsv(os, kJoinedTable, rowsOf(builds, *this));
}

void
SimReport::joinJson(const BuildReport &builds, std::ostream &os) const
{
    std::vector<Row> rows = rowsOf(builds, *this);
    // The build phase's stage-cache counters make the cache win
    // visible in the joined artifact, so CI can validate every
    // stage's run/reuse count against the matrix's content keys.
    writeJson(os,
              shapeFields("joined_report", *this) +
                  field("seconds", strfmt("%g", seconds)) +
                  stageCounterFields(builds),
              kJoinedTable, rows);
}

//---------------------------------------------------------------------
// Equivalence
//---------------------------------------------------------------------

namespace {

/** Record `msg` as the first difference; returns false. */
bool
differs(std::string *why, const std::string &msg)
{
    if (why)
        *why = msg;
    return false;
}

/** Same cell at the same matrix position? */
bool
sameCell(const CellId &a, const CellId &b, std::string *why)
{
    if (a.app != b.app || a.config != b.config)
        return differs(why, "record identity differs: " + a.app + "/" +
                                a.config + " vs " + b.app + "/" +
                                b.config);
    if (a.appIndex != b.appIndex || a.configIndex != b.configIndex)
        return differs(why, "record matrix position differs");
    return true;
}

std::string
imageBytes(const backend::MProgram &image)
{
    support::BinWriter w;
    backend::writeProgram(w, image);
    return w.data();
}

} // namespace

bool
BuildDriver::resultsEquivalent(const BuildResult &a, const BuildResult &b,
                               std::string *why)
{
    if (a.codeBytes != b.codeBytes)
        return differs(why, strfmt("codeBytes %u != %u", a.codeBytes,
                                   b.codeBytes));
    if (a.ramBytes != b.ramBytes)
        return differs(why, strfmt("ramBytes %u != %u", a.ramBytes,
                                   b.ramBytes));
    if (a.romDataBytes != b.romDataBytes)
        return differs(why, strfmt("romDataBytes %u != %u",
                                   a.romDataBytes, b.romDataBytes));
    if (a.survivingChecks != b.survivingChecks)
        return differs(why, strfmt("survivingChecks %u != %u",
                                   a.survivingChecks, b.survivingChecks));
    if (a.safetyReport != b.safetyReport)
        return differs(why, "safetyReport differs");
    if (a.cxpropReport != b.cxpropReport)
        return differs(why, "cxpropReport differs: " +
                                cxpropReportString(a.cxpropReport) +
                                " vs " +
                                cxpropReportString(b.cxpropReport));
    // Equal digests of the serialized final modules stand for equal
    // IR: writeModule is deterministic and readModule inverts it.
    if (a.irDigest != b.irDigest)
        return differs(why, strfmt("final IR digest %016llx != %016llx",
                                   static_cast<unsigned long long>(
                                       a.irDigest),
                                   static_cast<unsigned long long>(
                                       b.irDigest)));
    if (a.flidTable != b.flidTable)
        return differs(why, "FLID table differs");
    if (imageBytes(a.image) != imageBytes(b.image))
        return differs(why, "linked image bytes differ");
    return true;
}

bool
BuildDriver::recordsEquivalent(const BuildRecord &a, const BuildRecord &b,
                               std::string *why)
{
    if (!sameCell(a, b, why))
        return false;
    if (a.ok != b.ok)
        return differs(why, "one record failed: " + a.error + b.error);
    if (!a.ok)
        return a.error == b.error || differs(why, "error text differs");
    std::string innerWhy;
    if (!resultsEquivalent(*a.result, *b.result, &innerWhy))
        return differs(why, a.app + "/" + a.config + ": " + innerWhy);
    return true;
}

bool
SimDriver::recordsEquivalent(const SimRecord &a, const SimRecord &b,
                             std::string *why)
{
    if (!sameCell(a, b, why))
        return false;
    if (a.ok != b.ok)
        return differs(why, a.app + "/" + a.config +
                                ": one record failed (" +
                                (a.ok ? "second" : "first") + "): " +
                                (a.ok ? b.error : a.error));
    if (!a.ok)
        return a.error == b.error || differs(why, "error text differs");
    // Every outcome field compares exactly, doubles included; the
    // columns only name the first difference for `why`.
    if (a.outcome == b.outcome)
        return true;
    const std::string cell = a.app + "/" + a.config + ": ";
    for (const Column &c : kOutcome) {
        std::string va = c.value({&a, nullptr, &a}).s;
        std::string vb = c.value({&b, nullptr, &b}).s;
        if (va != vb)
            return differs(why, cell + c.name + " " + va + " != " + vb);
    }
    if (a.outcome.uartLog != b.outcome.uartLog)
        return differs(why, cell + "uartLog differs");
    return differs(why, cell + "outcome differs below the printed digits");
}

bool
SimDriver::reportsEquivalent(const SimReport &a, const SimReport &b,
                             std::string *why)
{
    if (a.records.size() != b.records.size() ||
        a.numApps != b.numApps || a.numConfigs != b.numConfigs) {
        if (why)
            *why = "report shapes differ";
        return false;
    }
    for (size_t i = 0; i < a.records.size(); ++i) {
        if (!recordsEquivalent(a.records[i], b.records[i], why))
            return false;
    }
    return true;
}

} // namespace stos::core
