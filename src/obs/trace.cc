#include "obs/trace.h"

#include <cinttypes>
#include <cstring>

#include "common/json.h"
#include "common/log.h"

namespace tcsim::obs
{

namespace
{

constexpr const char *kCategoryNames[kNumCategories] = {
    "fetch", "tc", "fill", "promote", "bpred", "mem", "core",
};

/**
 * Base for file-writing sinks: owns the FILE* when opened from a path,
 * borrows it (no close) for stderr.
 */
class FileSink : public TraceSink
{
  public:
    ~FileSink() override
    {
        if (owned_ && file_ != nullptr)
            std::fclose(file_);
    }

    bool
    open(const std::string &path, std::string *error)
    {
        if (path.empty()) {
            file_ = stderr;
            owned_ = false;
            return true;
        }
        file_ = std::fopen(path.c_str(), "w");
        if (file_ == nullptr) {
            if (error != nullptr)
                *error = "cannot open trace output '" + path + "'";
            return false;
        }
        owned_ = true;
        return true;
    }

  protected:
    std::FILE *file_ = nullptr;
    bool owned_ = false;
};

class TextSink : public FileSink
{
  public:
    void
    write(const TraceRecord &rec) override
    {
        char line[640];
        const int n = std::snprintf(line, sizeof(line),
                                    "cyc %" PRIu64 " %s %s %s\n", rec.cycle,
                                    categoryName(rec.cat), rec.event,
                                    rec.detail);
        if (n > 0)
            logLineAtomic(file_, line,
                          n >= static_cast<int>(sizeof(line))
                              ? sizeof(line) - 1
                              : static_cast<std::size_t>(n));
    }

    void flush() override { std::fflush(file_); }
};

class JsonlSink : public FileSink
{
  public:
    void
    write(const TraceRecord &rec) override
    {
        line_.clear();
        line_ += "{\"t\":";
        line_ += std::to_string(rec.cycle);
        line_ += ",\"cat\":\"";
        line_ += categoryName(rec.cat);
        line_ += "\",\"ev\":\"";
        json::appendEscaped(line_, rec.event);
        line_ += "\",\"detail\":\"";
        json::appendEscaped(line_, rec.detail);
        line_ += "\"}\n";
        logLineAtomic(file_, line_.c_str(), line_.size());
    }

    void flush() override { std::fflush(file_); }

  private:
    std::string line_;
};

/**
 * Chrome trace_event JSON ("ts" carries the simulated cycle, viewers
 * display it as microseconds). The closing "]}" is written by flush();
 * the destructor flushes too, so an un-flushed file is still valid.
 */
class ChromeSink : public FileSink
{
  public:
    ~ChromeSink() override { finish(); }

    void
    write(const TraceRecord &rec) override
    {
        if (!headerWritten_) {
            std::fputs("{\"traceEvents\":[\n", file_);
            headerWritten_ = true;
        }
        line_.clear();
        if (anyRecord_)
            line_ += ",\n";
        line_ += "{\"name\":\"";
        json::appendEscaped(line_, rec.event);
        line_ += "\",\"cat\":\"";
        line_ += categoryName(rec.cat);
        line_ += "\",\"ph\":\"i\",\"s\":\"g\",\"ts\":";
        line_ += std::to_string(rec.cycle);
        line_ += ",\"pid\":1,\"tid\":1,\"args\":{\"detail\":\"";
        json::appendEscaped(line_, rec.detail);
        line_ += "\"}}";
        std::fwrite(line_.data(), 1, line_.size(), file_);
        anyRecord_ = true;
    }

    void
    flush() override
    {
        finish();
        std::fflush(file_);
    }

  private:
    void
    finish()
    {
        if (closed_ || file_ == nullptr)
            return;
        if (!headerWritten_)
            std::fputs("{\"traceEvents\":[\n", file_);
        std::fputs("\n]}\n", file_);
        closed_ = true;
    }

    std::string line_;
    bool headerWritten_ = false;
    bool anyRecord_ = false;
    bool closed_ = false;
};

} // namespace

const char *
categoryName(Category cat)
{
    const auto idx = static_cast<unsigned>(cat);
    TCSIM_ASSERT(idx < kNumCategories);
    return kCategoryNames[idx];
}

bool
categoryFromName(const std::string &name, Category &out)
{
    for (unsigned i = 0; i < kNumCategories; ++i) {
        if (name == kCategoryNames[i]) {
            out = static_cast<Category>(i);
            return true;
        }
    }
    return false;
}

bool
parseCategoryList(const std::string &list, std::uint32_t &mask,
                  std::string *error)
{
    mask = 0;
    if (list == "all") {
        mask = (1u << kNumCategories) - 1;
        return true;
    }
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string name = list.substr(pos, comma - pos);
        if (!name.empty()) {
            Category cat;
            if (!categoryFromName(name, cat)) {
                if (error != nullptr) {
                    *error = "unknown trace category '" + name +
                             "' (valid: fetch,tc,fill,promote,bpred,mem,"
                             "core,all)";
                }
                return false;
            }
            mask |= 1u << static_cast<unsigned>(cat);
        }
        pos = comma + 1;
    }
    return true;
}

bool
sinkFormatFromName(const std::string &name, SinkFormat &out)
{
    if (name == "text") {
        out = SinkFormat::Text;
    } else if (name == "jsonl") {
        out = SinkFormat::Jsonl;
    } else if (name == "chrome") {
        out = SinkFormat::Chrome;
    } else {
        return false;
    }
    return true;
}

SinkFormat
inferSinkFormat(const std::string &path)
{
    const auto endsWith = [&path](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    if (endsWith(".jsonl"))
        return SinkFormat::Jsonl;
    if (endsWith(".json"))
        return SinkFormat::Chrome;
    return SinkFormat::Text;
}

std::unique_ptr<TraceSink>
makeSink(SinkFormat format, const std::string &path, std::string *error)
{
    std::unique_ptr<FileSink> sink;
    switch (format) {
      case SinkFormat::Text:
        sink = std::make_unique<TextSink>();
        break;
      case SinkFormat::Jsonl:
        sink = std::make_unique<JsonlSink>();
        break;
      case SinkFormat::Chrome:
        sink = std::make_unique<ChromeSink>();
        break;
    }
    if (!sink->open(path, error))
        return nullptr;
    return sink;
}

void
Tracer::flush()
{
    for (auto &sink : sinks_)
        sink->flush();
}

void
Tracer::emit(Category cat, const char *event, const char *fmt, ...)
{
    char detail[512];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(detail, sizeof(detail), fmt, args);
    va_end(args);
    if (n < 0)
        detail[0] = '\0';

    TraceRecord rec;
    rec.cycle = clock_ != nullptr ? *clock_ : 0;
    rec.cat = cat;
    rec.event = event;
    rec.detail = detail;
    ++emitted_;
    for (auto &sink : sinks_)
        sink->write(rec);
}

} // namespace tcsim::obs
