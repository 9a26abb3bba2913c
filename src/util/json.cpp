#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace onelab::util {

JsonValue JsonValue::makeBool(bool b) {
    JsonValue v;
    v.kind_ = Kind::boolean;
    v.boolean_ = b;
    return v;
}

JsonValue JsonValue::makeNumber(double n) {
    JsonValue v;
    v.kind_ = Kind::number;
    v.number_ = n;
    return v;
}

JsonValue JsonValue::makeString(std::string s) {
    JsonValue v;
    v.kind_ = Kind::string;
    v.string_ = std::move(s);
    return v;
}

JsonValue JsonValue::makeArray() {
    JsonValue v;
    v.kind_ = Kind::array;
    return v;
}

JsonValue JsonValue::makeObject() {
    JsonValue v;
    v.kind_ = Kind::object;
    return v;
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
    if (kind_ != Kind::object) return nullptr;
    for (const auto& [name, value] : members_)
        if (name == key) return &value;
    return nullptr;
}

double JsonValue::numberOr(const std::string& key, double fallback) const noexcept {
    const JsonValue* v = find(key);
    return v && v->isNumber() ? v->number() : fallback;
}

std::string JsonValue::stringOr(const std::string& key, const std::string& fallback) const {
    const JsonValue* v = find(key);
    return v && v->isString() ? v->string() : fallback;
}

void JsonValue::append(JsonValue value) {
    kind_ = Kind::array;
    array_.push_back(std::move(value));
}

void JsonValue::set(std::string key, JsonValue value) {
    kind_ = Kind::object;
    for (auto& [name, existing] : members_) {
        if (name == key) {
            existing = std::move(value);
            return;
        }
    }
    members_.emplace_back(std::move(key), std::move(value));
}

void appendJsonQuoted(std::string& out, std::string_view text) {
    out += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void appendJsonNumber(std::string& out, double value) {
    char buf[64];
    if (value == std::floor(value) && std::fabs(value) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", value);
    else
        std::snprintf(buf, sizeof buf, "%.17g", value);
    out += buf;
}

std::string JsonValue::serialize() const {
    std::string out;
    switch (kind_) {
        case Kind::null: out = "null"; break;
        case Kind::boolean: out = boolean_ ? "true" : "false"; break;
        case Kind::number: appendJsonNumber(out, number_); break;
        case Kind::string: appendJsonQuoted(out, string_); break;
        case Kind::array: {
            out = "[";
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i) out += ',';
                out += array_[i].serialize();
            }
            out += ']';
            break;
        }
        case Kind::object: {
            out = "{";
            for (std::size_t i = 0; i < members_.size(); ++i) {
                if (i) out += ',';
                appendJsonQuoted(out, members_[i].first);
                out += ':';
                out += members_[i].second.serialize();
            }
            out += '}';
            break;
        }
    }
    return out;
}

// --------------------------------------------------------------- parse

namespace {

class Parser {
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    Result<JsonValue> run() {
        JsonValue value;
        if (!parseValue(value)) return fail();
        skipWs();
        if (pos_ != text_.size()) return fail("trailing characters");
        return value;
    }

  private:
    Result<JsonValue> fail(const std::string& what = {}) const {
        return Error{Error::Code::protocol,
                     "json: " + (what.empty() ? error_ : what) + " at offset " +
                         std::to_string(pos_)};
    }

    void skipWs() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool literal(std::string_view word) {
        if (text_.compare(pos_, word.size(), word) != 0) return false;
        pos_ += word.size();
        return true;
    }

    bool parseValue(JsonValue& out) {
        skipWs();
        if (pos_ >= text_.size()) return setError("unexpected end of input");
        const char c = text_[pos_];
        if (c == 'n') {
            if (!literal("null")) return setError("bad literal");
            out = JsonValue::makeNull();
            return true;
        }
        if (c == 't') {
            if (!literal("true")) return setError("bad literal");
            out = JsonValue::makeBool(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false")) return setError("bad literal");
            out = JsonValue::makeBool(false);
            return true;
        }
        if (c == '"') return parseString(out);
        if (c == '[') return parseArray(out);
        if (c == '{') return parseObject(out);
        return parseNumber(out);
    }

    bool setError(std::string what) {
        error_ = std::move(what);
        return false;
    }

    bool parseNumber(JsonValue& out) {
        const char* begin = text_.c_str() + pos_;
        char* end = nullptr;
        const double value = std::strtod(begin, &end);
        if (end == begin) return setError("expected a value");
        pos_ += std::size_t(end - begin);
        out = JsonValue::makeNumber(value);
        return true;
    }

    static void appendUtf8(std::string& out, unsigned code) {
        if (code < 0x80) {
            out += char(code);
        } else if (code < 0x800) {
            out += char(0xc0 | (code >> 6));
            out += char(0x80 | (code & 0x3f));
        } else {
            out += char(0xe0 | (code >> 12));
            out += char(0x80 | ((code >> 6) & 0x3f));
            out += char(0x80 | (code & 0x3f));
        }
    }

    bool parseString(JsonValue& out) {
        ++pos_;  // opening quote
        std::string value;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') {
                out = JsonValue::makeString(std::move(value));
                return true;
            }
            if (c != '\\') {
                value += c;
                continue;
            }
            if (pos_ >= text_.size()) return setError("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': value += '"'; break;
                case '\\': value += '\\'; break;
                case '/': value += '/'; break;
                case 'b': value += '\b'; break;
                case 'f': value += '\f'; break;
                case 'n': value += '\n'; break;
                case 'r': value += '\r'; break;
                case 't': value += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) return setError("short \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
                        else return setError("bad \\u escape");
                    }
                    appendUtf8(value, code);
                    break;
                }
                default: return setError("unknown escape");
            }
        }
        return setError("unterminated string");
    }

    bool parseArray(JsonValue& out) {
        ++pos_;  // '['
        out = JsonValue::makeArray();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue element;
            if (!parseValue(element)) return false;
            out.append(std::move(element));
            skipWs();
            if (pos_ >= text_.size()) return setError("unterminated array");
            const char c = text_[pos_++];
            if (c == ']') return true;
            if (c != ',') return setError("expected ',' or ']'");
        }
    }

    bool parseObject(JsonValue& out) {
        ++pos_;  // '{'
        out = JsonValue::makeObject();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return setError("expected object key");
            JsonValue key;
            if (!parseString(key)) return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return setError("expected ':'");
            // A repeated key is an error, not last-wins: a document
            // that says two things at once must not mean either one.
            if (out.find(key.string()))
                return setError("duplicate key \"" + key.string() + "\"");
            JsonValue value;
            if (!parseValue(value)) return false;
            out.set(key.string(), std::move(value));
            skipWs();
            if (pos_ >= text_.size()) return setError("unterminated object");
            const char c = text_[pos_++];
            if (c == '}') return true;
            if (c != ',') return setError("expected ',' or '}'");
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::string error_ = "parse error";
};

}  // namespace

Result<JsonValue> JsonValue::parse(const std::string& text) {
    return Parser{text}.run();
}

Result<JsonValue> JsonValue::parseFile(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) return Error{Error::Code::io, "cannot read " + path};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

}  // namespace onelab::util
