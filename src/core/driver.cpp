/**
 * @file
 * Build-matrix vocabulary: BuildReport emitters and the BuildDriver
 * equivalence helpers. The batch-compile engine itself lives in
 * core/experiment.cpp; declare matrices on an Experiment directly.
 */
#include "core/driver.h"

#include <ostream>

#include "ir/printer.h"
#include "support/util.h"

namespace stos::core {

//---------------------------------------------------------------------
// BuildReport
//---------------------------------------------------------------------

BuildRecord &
BuildReport::at(size_t app, size_t cfg)
{
    return records.at(app * numConfigs + cfg);
}

const BuildRecord &
BuildReport::at(size_t app, size_t cfg) const
{
    return records.at(app * numConfigs + cfg);
}

const BuildRecord *
BuildReport::find(const std::string &app, const std::string &config) const
{
    for (const auto &r : records) {
        if (r.app == app && r.config == config)
            return &r;
    }
    return nullptr;
}

bool
BuildReport::allOk() const
{
    for (const auto &r : records) {
        if (!r.ok)
            return false;
    }
    return true;
}

std::string
BuildReport::summary() const
{
    std::string s =
        strfmt("%zu apps x %zu configs = %zu builds in %.0f ms "
               "(%u jobs; stage runs/reuses: frontend %zu/%zu, "
               "safety %zu/%zu, opt %zu/%zu, backend %zu/%zu)",
               numApps, numConfigs, records.size(), wallMillis,
               jobsUsed, frontendParses, frontendReuses, safetyRuns,
               safetyReuses, optRuns, optReuses, backendRuns,
               backendReuses);
    if (diskHits() > 0 || cacheBytesWritten > 0)
        s += strfmt(" (disk hits: frontend %zu, safety %zu, opt %zu, "
                    "backend %zu; %llu KiB read, %llu KiB written)",
                    frontendDiskHits, safetyDiskHits, optDiskHits,
                    backendDiskHits,
                    static_cast<unsigned long long>(cacheBytesRead /
                                                    1024),
                    static_cast<unsigned long long>(cacheBytesWritten /
                                                    1024));
    return s;
}

void
BuildReport::emitCsv(std::ostream &os) const
{
    os << "app,platform,config,app_index,config_index,ok,error,"
          "frontend_reused,safety_reused,opt_reused,backend_reused,"
          "code_bytes,ram_bytes,rom_data_bytes,"
          "surviving_checks,checks_inserted,cxprop_checks_removed,"
          "millis\n";
    for (const auto &r : records) {
        os << csvField(r.app) << ',' << csvField(r.platform) << ','
           << csvField(r.config) << ',' << r.appIndex << ','
           << r.configIndex << ',' << (r.ok ? 1 : 0) << ','
           << csvField(r.error) << ',' << (r.frontendReused ? 1 : 0)
           << ',' << (r.safetyReused ? 1 : 0) << ','
           << (r.optReused ? 1 : 0) << ',' << (r.backendReused ? 1 : 0);
        if (r.ok) {
            os << ',' << r.result->codeBytes << ',' << r.result->ramBytes
               << ',' << r.result->romDataBytes << ','
               << r.result->survivingChecks << ','
               << r.result->safetyReport.checksInserted << ','
               << r.result->cxpropReport.checksRemoved;
        } else {
            os << ",,,,,,";
        }
        os << ',' << strfmt("%.3f", r.millis) << '\n';
    }
}

void
BuildReport::emitJson(std::ostream &os) const
{
    os << "{\n"
       << "  \"kind\": \"build_report\",\n"
       << "  \"num_apps\": " << numApps << ",\n"
       << "  \"num_configs\": " << numConfigs << ",\n"
       << "  \"jobs_used\": " << jobsUsed << ",\n"
       << "  \"frontend_parses\": " << frontendParses << ",\n"
       << "  \"frontend_reuses\": " << frontendReuses << ",\n"
       << "  \"safety_runs\": " << safetyRuns << ",\n"
       << "  \"safety_reuses\": " << safetyReuses << ",\n"
       << "  \"opt_runs\": " << optRuns << ",\n"
       << "  \"opt_reuses\": " << optReuses << ",\n"
       << "  \"backend_runs\": " << backendRuns << ",\n"
       << "  \"backend_reuses\": " << backendReuses << ",\n"
       << "  \"stage_reuses\": " << stageReuses() << ",\n"
       << "  \"frontend_disk_hits\": " << frontendDiskHits << ",\n"
       << "  \"safety_disk_hits\": " << safetyDiskHits << ",\n"
       << "  \"opt_disk_hits\": " << optDiskHits << ",\n"
       << "  \"backend_disk_hits\": " << backendDiskHits << ",\n"
       << "  \"disk_hits\": " << diskHits() << ",\n"
       << "  \"cache_bytes_read\": " << cacheBytesRead << ",\n"
       << "  \"cache_bytes_written\": " << cacheBytesWritten << ",\n"
       << "  \"wall_millis\": " << strfmt("%.3f", wallMillis) << ",\n"
       << "  \"records\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
        const BuildRecord &r = records[i];
        os << "    {\"app\": \"" << jsonEscape(r.app)
           << "\", \"platform\": \"" << jsonEscape(r.platform)
           << "\", \"config\": \"" << jsonEscape(r.config)
           << "\", \"app_index\": " << r.appIndex
           << ", \"config_index\": " << r.configIndex
           << ", \"ok\": " << (r.ok ? "true" : "false")
           << ", \"error\": \"" << jsonEscape(r.error)
           << "\", \"frontend_reused\": "
           << (r.frontendReused ? "true" : "false")
           << ", \"safety_reused\": "
           << (r.safetyReused ? "true" : "false")
           << ", \"opt_reused\": " << (r.optReused ? "true" : "false")
           << ", \"backend_reused\": "
           << (r.backendReused ? "true" : "false");
        if (r.ok) {
            os << ", \"code_bytes\": " << r.result->codeBytes
               << ", \"ram_bytes\": " << r.result->ramBytes
               << ", \"rom_data_bytes\": " << r.result->romDataBytes
               << ", \"surviving_checks\": " << r.result->survivingChecks
               << ", \"checks_inserted\": "
               << r.result->safetyReport.checksInserted
               << ", \"cxprop_checks_removed\": "
               << r.result->cxpropReport.checksRemoved;
        }
        os << ", \"millis\": " << strfmt("%.3f", r.millis) << "}"
           << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

//---------------------------------------------------------------------
// Equivalence
//---------------------------------------------------------------------

bool
BuildDriver::resultsEquivalent(const BuildResult &a, const BuildResult &b,
                               std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (a.codeBytes != b.codeBytes)
        return fail(strfmt("codeBytes %u != %u", a.codeBytes,
                           b.codeBytes));
    if (a.ramBytes != b.ramBytes)
        return fail(strfmt("ramBytes %u != %u", a.ramBytes, b.ramBytes));
    if (a.romDataBytes != b.romDataBytes)
        return fail(strfmt("romDataBytes %u != %u", a.romDataBytes,
                           b.romDataBytes));
    if (a.survivingChecks != b.survivingChecks)
        return fail(strfmt("survivingChecks %u != %u", a.survivingChecks,
                           b.survivingChecks));
    if (a.safetyReport.checksInserted != b.safetyReport.checksInserted)
        return fail("safetyReport.checksInserted differs");
    if (a.safetyReport.checksByKind != b.safetyReport.checksByKind)
        return fail("safetyReport.checksByKind differs");
    if (a.safetyReport.redundantChecksDropped !=
        b.safetyReport.redundantChecksDropped)
        return fail("safetyReport.redundantChecksDropped differs");
    if (a.safetyReport.locksInserted != b.safetyReport.locksInserted)
        return fail("safetyReport.locksInserted differs");
    if (a.safetyReport.racyGlobals != b.safetyReport.racyGlobals)
        return fail("safetyReport.racyGlobals differs");
    if (a.cxpropReport.checksRemoved != b.cxpropReport.checksRemoved)
        return fail("cxpropReport.checksRemoved differs");
    if (a.cxpropReport.funcsInlined != b.cxpropReport.funcsInlined)
        return fail("cxpropReport.funcsInlined differs");
    if (a.cxpropReport.atomicsRemoved != b.cxpropReport.atomicsRemoved)
        return fail("cxpropReport.atomicsRemoved differs");
    if (a.cxpropReport.atomicSavesDowngraded !=
        b.cxpropReport.atomicSavesDowngraded)
        return fail("cxpropReport.atomicSavesDowngraded differs");
    if (a.cxpropReport.rounds != b.cxpropReport.rounds)
        return fail("cxpropReport.rounds differs");
    if (a.cxpropReport.fixpointRounds != b.cxpropReport.fixpointRounds)
        return fail("cxpropReport.fixpointRounds differs");
    if (a.cxpropReport.funcAnalyses != b.cxpropReport.funcAnalyses)
        return fail("cxpropReport.funcAnalyses differs");
    if (a.cxpropReport.funcAnalysesSkipped !=
        b.cxpropReport.funcAnalysesSkipped)
        return fail("cxpropReport.funcAnalysesSkipped differs");
    if (a.cxpropReport.blockVisits != b.cxpropReport.blockVisits)
        return fail("cxpropReport.blockVisits differs");
    if (ir::moduleToString(a.module) != ir::moduleToString(b.module))
        return fail("final IR text differs");
    return true;
}

bool
BuildDriver::recordsEquivalent(const BuildRecord &a, const BuildRecord &b,
                               std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (a.app != b.app || a.config != b.config)
        return fail("record identity differs: " + a.app + "/" +
                    a.config + " vs " + b.app + "/" + b.config);
    if (a.appIndex != b.appIndex || a.configIndex != b.configIndex)
        return fail("record matrix position differs");
    if (a.ok != b.ok)
        return fail("one record failed: " + a.error + b.error);
    if (!a.ok)
        return a.error == b.error ? true : fail("error text differs");
    std::string innerWhy;
    if (!resultsEquivalent(*a.result, *b.result, &innerWhy))
        return fail(a.app + "/" + a.config + ": " + innerWhy);
    return true;
}

} // namespace stos::core
